package scenario

import (
	"fmt"

	"vcdl/internal/ops"
)

// Mode names a scenario execution engine.
type Mode string

const (
	// ModeSim compiles the scenario onto the deterministic virtual-time
	// simulator (vcsim) — the default.
	ModeSim Mode = "sim"
	// ModeReal compiles the same scenario onto a live fleet: an
	// in-process BOINC server plus real client daemons (goroutines or
	// OS processes) speaking the HTTP protocol, with virtual event
	// times mapped onto the wall clock (internal/live, DESIGN.md §9).
	ModeReal Mode = "real"
)

// ParseMode validates a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeSim:
		return ModeSim, nil
	case ModeReal:
		return ModeReal, nil
	}
	return "", fmt.Errorf("unknown mode %q (want sim or real)", s)
}

// targeted is implemented by events that address one client by id. The
// engines check the id against the run's full membership history before
// applying: an event targeting an id that never existed fails the run
// (a typo'd scenario should not pass silently), while an id that
// existed but departed still applies normally and traces its outcome.
type targeted interface {
	TargetID() string
}

// dispatch applies one event through the run's ops core and hands the
// outcome, stamped with hours (the engine's current virtual time), to
// the engine's trace sink. An event aimed at a client id that never
// existed in the run is traced as an ERROR and not applied; the
// returned error lets the engine fail the run.
func dispatch(sc *Scenario, ctrl *ops.Core, ev Event, hours float64, trace func(string)) error {
	var id string
	if t, ok := ev.(targeted); ok {
		id = t.TargetID()
	}
	if id != "" && !ctrl.KnownClient(id) {
		msg := fmt.Sprintf("event %q targets client %q, which never existed in this run", ev.Desc(), id)
		trace(fmt.Sprintf("[%7.3fh] ERROR: %s", hours, msg))
		return fmt.Errorf("scenario %s: %s", sc.Name, msg)
	}
	trace(fmt.Sprintf("[%7.3fh] %s", hours, ev.Apply(ctrl)))
	return nil
}

// Modes reports which engines can execute the scenario, and for each
// unsupported engine the constructs that rule it out.
func (sc *Scenario) Modes() (modes []Mode, reasons map[Mode][]string) {
	reasons = map[Mode][]string{}
	f := sc.Fleet

	// Simulator-only constructs: the real engine trains for real, so it
	// has no compute backends to swap, runs only the quick workload at
	// scenario time scales, has no §III-D autoscaler model and no cloud
	// billing model.
	var noReal []string
	if f.Workload == "paper" {
		noReal = append(noReal, "workload paper (real mode runs the quick workload)")
	}
	if f.Compute != "" && f.Compute != "real" {
		noReal = append(noReal, fmt.Sprintf("compute %s (compute backends are a simulator concept)", f.Compute))
	}
	if f.AutoScale {
		noReal = append(noReal, "autoscale (the PS autoscaler is modelled only in the simulator)")
	}
	for _, a := range sc.Asserts {
		switch a.Metric {
		case "cost_standard_usd", "cost_preemptible_usd":
			noReal = append(noReal, fmt.Sprintf("assertion %q (cloud billing is modelled only in the simulator)", a.Raw))
		}
	}

	// Real-only constructs: process isolation, graceful detach and the
	// whole data-plane/checkpoint surface have no simulator equivalent —
	// the simulator's golden traces must stay byte-identical, so nothing
	// here may leak into sim runs.
	var noSim []string
	if f.Procs {
		noSim = append(noSim, "procs on (process-isolated clients need the real engine)")
	}
	if f.Blobs {
		noSim = append(noSim, "blobs on (the content-addressed data plane needs the real engine)")
	}
	if f.Checkpoint {
		noSim = append(noSim, "checkpoints on (durable PS checkpoints need the real engine)")
	}
	if f.StoreKind != "" {
		noSim = append(noSim, fmt.Sprintf("store %s (store selection is a real-engine concern)", f.StoreKind))
	}
	if f.Shards > 1 {
		noSim = append(noSim, fmt.Sprintf("shards %d (scheduler state striping only matters under real concurrency)", f.Shards))
	}
	if f.AdmitMax > 0 {
		noSim = append(noSim, fmt.Sprintf("admission %d %d (load shedding needs the real HTTP server)", f.AdmitMax, f.AdmitQueue))
	}
	for _, ev := range sc.Events {
		member, _ := ev.(memberEvent)
		_, blobKill := ev.(blobKillEvent)
		switch {
		case member.verb == "detach":
			noSim = append(noSim, fmt.Sprintf("event %q (graceful detach needs the real engine; sim departures are abrupt)", ev.Desc()))
		case member.verb == "rejoin":
			noSim = append(noSim, fmt.Sprintf("event %q (reviving departed clients needs the real engine)", ev.Desc()))
		case blobKill:
			noSim = append(noSim, fmt.Sprintf("event %q (blob fault injection needs the real engine)", ev.Desc()))
		}
	}
	for _, a := range sc.Asserts {
		switch a.Metric {
		case "blob_mb", "blob_resumes", "blob_cache_hits", "ckpt_epoch", "ckpt_restores":
			noSim = append(noSim, fmt.Sprintf("assertion %q (data-plane/checkpoint metrics exist only in the real engine)", a.Raw))
		}
	}

	if len(noSim) == 0 {
		modes = append(modes, ModeSim)
	} else {
		reasons[ModeSim] = noSim
	}
	if len(noReal) == 0 {
		modes = append(modes, ModeReal)
	} else {
		reasons[ModeReal] = noReal
	}
	return modes, reasons
}

// SupportsMode reports whether the scenario can run under m, with the
// blocking constructs in the error when it cannot.
func (sc *Scenario) SupportsMode(m Mode) error {
	modes, reasons := sc.Modes()
	for _, got := range modes {
		if got == m {
			return nil
		}
	}
	list := reasons[m]
	return fmt.Errorf("scenario %s does not support -mode %s: %v", sc.Name, m, list)
}
