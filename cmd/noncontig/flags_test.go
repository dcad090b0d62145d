package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestEveryFlagHasALaunchClass: a flag registered without def/refuse has
// no class, and -net launch would drop it on the way to the children
// without a word.
func TestEveryFlagHasALaunchClass(t *testing.T) {
	f := newFlags()
	valid := map[launchClass]bool{
		toRanks: true, toServers: true, toRanks | toServers: true,
		launcherOnly: true, setByLaunch: true, refused: true,
	}
	n := 0
	f.VisitAll(func(fl *flag.Flag) {
		n++
		c, ok := f.class[fl.Name]
		switch {
		case !ok:
			t.Errorf("-%s has no launch class", fl.Name)
		case !valid[c]:
			t.Errorf("-%s: class %b mixes forwarding with another class", fl.Name, c)
		case c == refused && f.why[fl.Name] == "":
			t.Errorf("-%s is refused under -net launch without a reason", fl.Name)
		}
	})
	if len(f.class) != n {
		t.Errorf("%d flags classified, %d registered", len(f.class), n)
	}
}

// nonDefault is a value for fl that is not its default.
func nonDefault(t *testing.T, fl *flag.Flag) string {
	t.Helper()
	var v string
	switch fl.Value.(flag.Getter).Get().(type) {
	case bool:
		v = map[string]string{"true": "false", "false": "true"}[fl.DefValue]
	case int, int64:
		v = "7"
	case time.Duration:
		v = "7s"
	case string:
		v = "x-" + fl.Name
	}
	if v == "" || v == fl.DefValue {
		t.Fatalf("-%s: no non-default value for a %T", fl.Name, fl.Value)
	}
	return v
}

// setAll sets every flag to a non-default value.
func setAll(t *testing.T, f *flags) {
	t.Helper()
	f.VisitAll(func(fl *flag.Flag) {
		if err := f.Set(fl.Name, nonDefault(t, fl)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChildArgsRoundTrip: with every flag set, each child's argument
// list parses back — through the same registration — to the launcher's
// value for every flag its class forwards (to the per-process value for
// the four that differ by process), carries what launch sets, and names
// no flag of any other class.
func TestChildArgsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		role    string
		want    launchClass
		servers string // -servers on the launcher's command line
		set     []string
		derived map[string]string
	}{
		{roleRank, toRanks, "0", []string{"-net=rank", "-net-rank=3"}, map[string]string{
			"trace": "x-trace.rank3", "flight": "x-flight/rank3.flight", "file": "x-file", "wire-chaos-seed": "10",
		}},
		{roleRank, toRanks, "2", []string{"-net=rank", "-net-rank=3"}, map[string]string{
			"trace": "x-trace.rank3", "flight": "x-flight/rank3.flight", "file": "", "wire-chaos-seed": "10",
		}},
		{roleServer, toServers, "2", []string{"-net=server", "-net-index=3"}, map[string]string{
			"trace": "x-trace.srv3", "flight": "x-flight/srv3.flight", "file": "x-file.srv3",
		}},
	} {
		t.Run(tc.role+"/servers="+tc.servers, func(t *testing.T) {
			f := newFlags()
			setAll(t, f)
			if err := f.Set("servers", tc.servers); err != nil {
				t.Fatal(err)
			}
			args := f.childArgs(tc.role, 3, tc.set...)
			child := newFlags()
			child.Init("child", flag.ContinueOnError)
			if err := child.Parse(args); err != nil {
				t.Fatalf("child cannot parse %q: %v", args, err)
			}
			got := make(map[string]bool)
			child.Visit(func(fl *flag.Flag) { got[fl.Name] = true })
			f.VisitAll(func(fl *flag.Flag) {
				name := fl.Name
				c := f.class[name]
				val := child.Lookup(name).Value.String()
				switch want, derived := tc.derived[name]; {
				case derived:
					if val != want {
						t.Errorf("-%s reaches the child as %q, want %q", name, val, want)
					}
				case c&tc.want != 0:
					if val != fl.Value.String() {
						t.Errorf("-%s reaches the child as %q, the launcher has %q", name, val, fl.Value)
					}
				case c == setByLaunch:
					// launch's to set; checked against tc.set below
				case got[name]:
					t.Errorf("-%s (class %b) was sent to a %s", name, c, tc.role)
				}
			})
			for _, s := range tc.set {
				name, val, _ := strings.Cut(strings.TrimPrefix(s, "-"), "=")
				if f.class[name] != setByLaunch {
					t.Errorf("-%s is set by launch but classed %b", name, f.class[name])
				}
				if got := child.Lookup(name).Value.String(); got != val {
					t.Errorf("-%s reaches the child as %q, launch set %q", name, got, val)
				}
			}
		})
	}
}

// TestRefusedUnderLaunch: a refused flag is named, with its reason, and
// only when it is on the command line.
func TestRefusedUnderLaunch(t *testing.T) {
	f := newFlags()
	if err := f.Parse([]string{"-net", "launch", "-collective", "-trace", "t.json"}); err != nil {
		t.Fatal(err)
	}
	if msg := f.refusedUnderLaunch(); msg != "" {
		t.Errorf("nothing refused is set, got %q", msg)
	}
	for name, c := range f.class {
		if c != refused {
			continue
		}
		g := newFlags()
		if err := g.Parse([]string{"-" + name + "=" + nonDefault(t, g.Lookup(name))}); err != nil {
			t.Fatal(err)
		}
		if msg := g.refusedUnderLaunch(); !strings.Contains(msg, "-"+name+":") {
			t.Errorf("-%s under launch: %q does not name it", name, msg)
		}
	}
}
