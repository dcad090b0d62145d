#!/usr/bin/env bash
# The reach pass: which product statements a product run executes, which
# only the tests execute, and which nothing executes.
#
#   bash results/pr51_reach.sh SRC OUT
#
# SRC is a checkout of this repository (it is only read, apart from the Go
# build cache); OUT is an empty scratch directory.  The pass builds
# cmd/noncontig, cmd/figures and the benchmark with -cover, runs every
# command line of ci.yml's smoke job, `figures -all -scale quick` and each
# benchmark workload at --trace 0 and --trace 1 into one GOCOVERDIR, runs
# the tests with -coverpkg into a second and each test alone into a
# profile of its own, and hands the profiles to pr51_reach.py, which
# prints the counts and writes OUT/blocks.tsv.
set -euo pipefail
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
bin=$out/bin
mkdir -p "$bin" "$out/prod" "$out/test" "$out/work" "$out/tmp"

cd "$src"
go build -cover -coverpkg=repro/... -o "$bin/noncontig" ./cmd/noncontig
go build -cover -coverpkg=repro/... -o "$bin/figures" ./cmd/figures
(cd benchmark && go build -cover -coverpkg=repro/...,repro/benchmark -o "$bin/benchmark" .)

# Product runs.  The smoke job's steps run as written, with the covered
# binaries in place of its build and its `go run` (a failing check there
# is logged, not fatal: the pass measures reach); the benchmark runs from
# the checkout, whose BENCHMARK.json it reads.
export GOCOVERDIR=$out/prod
python3 "$here/pr51_reach.py" smoke "$src/.github/workflows/ci.yml" >"$out/smoke.sh"
(cd "$out/work" && BIN=$bin RUNNER_TEMP=$out/tmp bash "$out/smoke.sh") >"$out/smoke.log" 2>&1 || true
"$bin/figures" -all -scale quick >"$out/figures.log"
for w in vec8 vec16k irr indep8 tcp16k tier64 tierview; do
	for tr in 0 1; do
		"$bin/benchmark" --workload $w --seed 2 --seconds 2 --trace $tr \
			--tmp "$out/tmp" --out "$out/tmp/spans" | tail -n 1 | grep -q '"correct":true'
	done
done
unset GOCOVERDIR

# Test runs.
go test -count=1 -cover -coverpkg=repro/... ./... -args -test.gocoverdir="$out/test" >"$out/test.log"

# Which test reaches a block: every test, fuzz seed corpus and example of
# every package run alone, each into its own profile.
mkdir -p "$out/pertest"
for pkg in $(go list ./...); do
	name=${pkg//\//_}
	go test -c -cover -coverpkg=repro/... -o "$bin/$name.test" "$pkg"
	[ -x "$bin/$name.test" ] || continue
	dir=$(go list -f '{{.Dir}}' "$pkg")
	for t in $("$bin/$name.test" -test.list '.*' | grep -E '^(Test|Fuzz|Example)'); do
		(cd "$dir" && "$bin/$name.test" -test.run "^$t\$" -test.count=1 \
			-test.coverprofile="$out/pertest/$name.$t.txt" >/dev/null 2>&1) || true
	done
done

go tool covdata textfmt -i="$out/prod" -o "$out/prod.txt"
go tool covdata textfmt -i="$out/test" -o "$out/test.txt"
python3 "$here/pr51_reach.py" blocks "$src" "$out/prod.txt" "$out/test.txt" "$out/blocks.tsv" "$out/pertest"
