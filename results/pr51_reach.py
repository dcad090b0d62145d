#!/usr/bin/env python3
"""Helpers of pr51_reach.sh.

  pr51_reach.py smoke CI_YML
      prints the run steps of ci.yml's smoke job as one bash script, with
      the covered binaries ($BIN/noncontig, $BIN/figures) in place of the
      job's build and its `go run ./cmd/figures`.

  pr51_reach.py blocks SRC PROD.txt TEST.txt OUT.tsv [PERTEST]
      reads the two `go tool covdata textfmt` profiles, drops the
      benchmark's blocks and the test helper packages (internal/testutil,
      internal/*test), keeps each block once with its largest count, prints
      the statement counts (reached by a product run, only by tests, by
      neither) per package and in total, and writes every block a product
      run does not reach to OUT.tsv: file, lines, statements, reach
      ("test" or "none"), enclosing function, and the rule that classes
      the block (a) without a line of its own: "errret" when every
      statement of the block returns or wraps an error a call returned,
      "refuse" when every one returns an error it makes or ends the
      program (log.Fatal, panic, os.Exit), "-" for neither; given
      PERTEST, the directory of one profile per test (pkg.Test.txt), a
      last column names the first test, by name, that reaches the block.

  pr51_reach.py render OUT.tsv CLASSES.tsv
      prints the classification as Markdown: each block of OUT.tsv with
      the class and reason CLASSES.tsv gives its block (file:line) or its
      function (file:function), the blocks of class (a) by rule counted
      per file (a function's (b), (c) or (r) covers its rule blocks too),
      and the totals per class; it fails on a block with no class.
"""
import collections
import os
import re
import sys


def smoke(ci):
    lines = open(ci).read().split("\n")
    out, in_job, i = [], False, 0
    while i < len(lines):
        ln = lines[i]
        if re.match(r"^  [A-Za-z_-]+:\s*$", ln):
            in_job = ln.strip() == "smoke:"
        m = re.match(r"^(\s*)(?:- )?run: ?(.*)$", ln) if in_job else None
        if m:
            if m.group(2).strip() == "|":
                ind = None
                i += 1
                while i < len(lines) and (lines[i].strip() == "" or ind is None or lines[i].startswith(ind)):
                    if lines[i].strip():
                        if ind is None:
                            ind = re.match(r"^\s*", lines[i]).group(0)
                        if len(re.match(r"^\s*", lines[i]).group(0)) < len(ind):
                            break
                    out.append(lines[i][len(ind or ""):])
                    i += 1
                continue
            out.append(m.group(2))
        i += 1
    script = "\n".join(out) + "\n"
    script = script.replace("go build -o noncontig-net ./cmd/noncontig", 'cp "$BIN/noncontig" noncontig-net')
    script = script.replace("go run ./cmd/figures", '"$BIN/figures"')
    sys.stdout.write(script)


def profile(path):
    """(file, start, end) -> (stmts, count), the largest count of each block."""
    blocks = {}
    for ln in open(path):
        m = re.match(r"^(\S+):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$", ln.strip())
        if not m:
            continue
        f = m.group(1)
        if not f.startswith("repro/") or f.startswith("repro/benchmark/"):
            continue
        d = os.path.dirname(f)
        if d == "repro/internal/testutil" or d.endswith("test"):
            continue
        key = (f, (int(m.group(2)), int(m.group(3))), (int(m.group(4)), int(m.group(5))))
        n, c = int(m.group(6)), int(m.group(7))
        if key in blocks:
            c = max(c, blocks[key][1])
        blocks[key] = (n, c)
    return blocks


FUNC = re.compile(r"^func (?:\((\w+ )?\*?(\w+)(?:\[[^\]]*\])?\) )?(\w+)")
# A statement that returns or wraps an error a call returned.
ERRRET = re.compile(r"^(return\b.*\berr\b|(log\.Fatal\w*|panic)\(.*\berr\b.*\))")
# A statement that refuses: returns an error it makes, or ends the program.
REFUSE = re.compile(r"^(return\b.*(\bfmt\.Errorf\(|\berrors\.New\(|\b[eE]rr[A-Z]\w*\b|\w+\.Err[A-Z]\w*\b)|"
                    r"(log\.Fatal\w*|panic|os\.Exit|flag\.Usage)\()")


def enclosing(src, path, line):
    text = open(os.path.join(src, path)).read().split("\n")
    for i in range(line - 1, -1, -1):
        m = FUNC.match(text[i])
        if m:
            return (m.group(2) + "." if m.group(2) else "") + m.group(3)
    return "(file)"


def body(src, path, start, end):
    text = open(os.path.join(src, path)).read().split("\n")
    (sl, sc), (el, ec) = start, end
    if sl == el:
        return text[sl - 1][sc - 1:ec - 1]
    return "\n".join([text[sl - 1][sc - 1:]] + text[sl:el - 1] + [text[el - 1][:ec - 1]])


def rule(code):
    """"errret" when every statement of the block returns or wraps an
    error a call returned, "refuse" when every one refuses or does that,
    "-" otherwise.  A statement continued on the next line counts as its
    first line."""
    stmts = [s.strip() for s in re.split(r"[\n;]", code.strip().strip("{}"))]
    stmts = [s for s in stmts if s and s not in ("{", "}") and not s.startswith("//")]
    heads, open_ = [], 0
    for s in stmts:
        if open_ == 0:
            heads.append(s)
        open_ += s.count("(") - s.count(")")
    if not heads:
        return "-"
    if all(ERRRET.match(s) for s in heads):
        return "errret"
    if all(ERRRET.match(s) or REFUSE.match(s) for s in heads):
        return "refuse"
    return "-"


def reachers(pertest):
    """(file, start, end) -> the first test, by name, that executes it."""
    first = {}
    for name in sorted(os.listdir(pertest)):
        pkg, test = name[:-len(".txt")].split(".", 1)
        test = pkg.replace("_", "/")[len("repro/"):] + "." + test if pkg != "repro" else test
        for key, (_, c) in profile(os.path.join(pertest, name)).items():
            if c > 0 and key not in first:
                first[key] = test
    return first


def blocks(src, prodf, testf, outf, pertest=None):
    prod, test = profile(prodf), profile(testf)
    by = reachers(pertest) if pertest else {}
    keys = set(prod) | set(test)
    tot = collections.Counter()
    per = collections.defaultdict(collections.Counter)
    rows = []
    for key in sorted(keys):
        n = max(prod.get(key, (0, 0))[0], test.get(key, (0, 0))[0])
        if prod.get(key, (0, 0))[1] > 0:
            reach = "prod"
        elif test.get(key, (0, 0))[1] > 0:
            reach = "test"
        else:
            reach = "none"
        pkg = os.path.dirname(key[0])[len("repro/"):]
        tot[reach] += n
        per[pkg][reach] += n
        if reach == "prod":
            continue
        path = key[0][len("repro/"):]
        code = body(src, path, key[1], key[2])
        rows.append((path, key[1][0], key[2][0], n, reach, enclosing(src, path, key[1][0]), rule(code),
                     by.get(key, "-")))
    print("%-22s %6s %6s %6s %6s" % ("package", "stmts", "prod", "test", "none"))
    for pkg in sorted(per):
        c = per[pkg]
        print("%-22s %6d %6d %6d %6d" % (pkg, sum(c.values()), c["prod"], c["test"], c["none"]))
    print("%-22s %6d %6d %6d %6d" % ("total", sum(tot.values()), tot["prod"], tot["test"], tot["none"]))
    print("blocks not reached by a product run: %d (%d test-only, %d by neither)" % (
        len(rows), sum(r[4] == "test" for r in rows), sum(r[4] == "none" for r in rows)))
    with open(outf, "w") as w:
        for r in rows:
            w.write("%s\t%d-%d\t%d\t%s\t%s\t%s\t%s\n" % r)


def render(outf, classf):
    """CLASSES.tsv: key <tab> class <tab> reason; key is file:function,
    or file:line for one block, which takes precedence.  A block a rule
    classes (a) is counted by the rule unless its function is (b), (c) or
    (r), which then covers the whole function."""
    cls = {}
    for ln in open(classf):
        if ln.strip() and not ln.startswith("#"):
            k, c, why = ln.rstrip("\n").split("\t")
            cls[k] = (c, why)
    tot = collections.Counter()
    errs = collections.Counter()
    out, missing = [], []
    for ln in open(outf):
        path, lines, n, reach, fn, er, by = ln.rstrip("\n").split("\t")
        start = lines.split("-")[0]
        hit = cls.get(path + ":" + start)
        if hit is None:
            hit = cls.get(path + ":" + fn)
            if hit is not None and hit[0] == "a" and er != "-":
                hit = None  # the rule names the block's fault better
        if hit is None and er != "-":
            errs[path, er] += 1
            tot["a"] += int(n)
            continue
        if hit is None:
            missing.append(ln.strip())
            continue
        tot[hit[0]] += int(n)
        who = "`%s`" % by if by != "-" else ("tests" if reach == "test" else "nothing")
        out.append("| `%s:%s` | %s | %s | `%s` | (%s) | %s |" % (path, lines, n, who, fn, hit[0], hit[1]))
    print("| block | stmts | first test reaching it | function | class | reason |")
    print("|---|---|---|---|---|---|")
    print("\n".join(out))
    print()
    print("Blocks of class (a) by rule, per file (returns or wraps a call's error / refuses):")
    print()
    files = sorted({p for p, _ in errs})
    for p in files:
        print("- `%s`: %d / %d" % (p, errs[p, "errret"], errs[p, "refuse"]))
    print()
    print("Statements per class: " + ", ".join("(%s) %d" % (k, tot[k]) for k in sorted(tot)))
    if missing:
        print("\nUNCLASSIFIED:\n" + "\n".join(missing), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    cmd = sys.argv[1]
    if cmd == "smoke":
        smoke(sys.argv[2])
    elif cmd == "blocks":
        blocks(*sys.argv[2:7])
    elif cmd == "render":
        render(*sys.argv[2:4])
    else:
        sys.exit(__doc__)
