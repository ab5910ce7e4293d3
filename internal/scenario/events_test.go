package scenario

import (
	"slices"
	"strings"
	"testing"

	"vcdl/internal/cloud"
	"vcdl/internal/obs"
	"vcdl/internal/ops"
)

// churnTarget is a small fleet with only the churn capability: c1..c3
// active (c3 the most recent joiner) and c0 departed.
type churnTarget struct{ active, departed []string }

func newChurnTarget() *churnTarget {
	return &churnTarget{active: []string{"c1", "c2", "c3"}, departed: []string{"c0"}}
}

func (f *churnTarget) ActiveClients() []string { return slices.Clone(f.active) }
func (f *churnTarget) AddClient(cloud.InstanceType, cloud.Region) string {
	f.active = append(f.active, "c9")
	return "c9"
}

// RemoveClients departs the n most recent joiners, newest first.
func (f *churnTarget) RemoveClients(n int) []string {
	var gone []string
	for ; n > 0 && len(f.active) > 0; n-- {
		id := f.active[len(f.active)-1]
		f.active = f.active[:len(f.active)-1]
		f.departed = append(f.departed, id)
		gone = append(gone, id)
	}
	return gone
}

func (f *churnTarget) RemoveClient(id string) bool {
	i := slices.Index(f.active, id)
	if i < 0 {
		return false
	}
	f.active = slices.Delete(f.active, i, i+1)
	f.departed = append(f.departed, id)
	return true
}

// memberTarget adds graceful detach and rejoin to churnTarget.
type memberTarget struct{ *churnTarget }

func (f memberTarget) DetachClient(id string) bool  { return f.RemoveClient(id) }
func (f memberTarget) DetachClients(n int) []string { return f.RemoveClients(n) }

func (f memberTarget) RejoinClient(id string) bool {
	i := slices.Index(f.departed, id)
	if i < 0 {
		return false
	}
	f.departed = slices.Delete(f.departed, i, i+1)
	f.active = append(f.active, id)
	return true
}

// RejoinClients revives the n most recently departed clients.
func (f memberTarget) RejoinClients(n int) []string {
	var back []string
	for ; n > 0 && len(f.departed) > 0; n-- {
		id := f.departed[len(f.departed)-1]
		f.departed = f.departed[:len(f.departed)-1]
		f.active = append(f.active, id)
		back = append(back, id)
	}
	return back
}

// activeOnly is a target with no capability beyond listing its clients.
type activeOnly struct{}

func (activeOnly) ActiveClients() []string { return []string{"c1"} }

// TestMembershipTraceText pins the exact trace text of the membership
// events (join, and the count-or-id leave, detach, rejoin) and the ops
// actions each one counts, applied through an ops.Core as both engines
// do.
func TestMembershipTraceText(t *testing.T) {
	for _, tc := range []struct {
		line     string
		bare     bool // target lacks the Detacher and Rejoiner capabilities
		noChurn  bool // target cannot add or remove clients at all
		want     string
		action   string
		ok, fail int64
	}{
		{line: "join 1 ClientB", want: "join c9 @us-east", action: "join", ok: 1},
		{line: "join 2 ClientB", noChurn: true, want: "join 2 refused @us-east (engine cannot add clients)", action: "join", fail: 1},
		{line: "join 1 mixed us-west", noChurn: true, want: "join 1 refused @us-west (engine cannot add clients)", action: "join", fail: 1},
		{line: "leave 2", want: "leave 2 clients [c3 c2] (1 active remain)", action: "kill", ok: 2},
		{line: "leave c1", want: "leave c1", action: "kill", ok: 1},
		{line: "leave ghost", want: "leave ghost (no such active client)", action: "kill", fail: 1},
		{line: "detach 2", want: "detach 2 clients [c3 c2] (1 active remain)", action: "drain", ok: 2},
		{line: "detach c1", want: "detach c1", action: "drain", ok: 1},
		{line: "detach ghost", want: "detach ghost (no such active client)", action: "drain", fail: 1},
		{line: "rejoin 1", want: "rejoin 1 clients [c0] (4 active now)", action: "rejoin", ok: 1},
		{line: "rejoin c0", want: "rejoin c0", action: "rejoin", ok: 1},
		{line: "rejoin ghost", want: "rejoin ghost (no such departed client)", action: "rejoin", fail: 1},
		{line: "detach 1", bare: true, want: "detach 0 clients [] (3 active remain)", action: "drain", fail: 1},
		{line: "rejoin c0", bare: true, want: "rejoin c0 (no such departed client)", action: "rejoin", fail: 1},
	} {
		name := tc.line
		if tc.bare {
			name += " (bare)"
		}
		if tc.noChurn {
			name += " (no churn)"
		}
		t.Run(name, func(t *testing.T) {
			sc, err := Parse(strings.NewReader("scenario s\nevents:\n  at 1s "+tc.line+"\n"), "s.txt")
			if err != nil {
				t.Fatal(err)
			}
			var target ops.Target = memberTarget{newChurnTarget()}
			if tc.bare {
				target = newChurnTarget()
			}
			if tc.noChurn {
				target = activeOnly{}
			}
			reg := obs.NewRegistry()
			if got := sc.Events[0].Apply(ops.NewCore(target, reg)); got != tc.want {
				t.Errorf("trace = %q, want %q", got, tc.want)
			}
			for _, action := range []string{"join", "kill", "drain", "rejoin"} {
				var ok, fail int64
				if action == tc.action {
					ok, fail = tc.ok, tc.fail
				}
				if got := reg.CounterValue("vcdl_ops_actions_total", action); got != ok {
					t.Errorf("actions_total{%s} = %d, want %d", action, got, ok)
				}
				if got := reg.CounterValue("vcdl_ops_failures_total", action); got != fail {
					t.Errorf("failures_total{%s} = %d, want %d", action, got, fail)
				}
			}
		})
	}
}
