// Package boinc implements the volunteer-computing middleware substrate the
// paper builds on (§II-C, §III): workunit/result lifecycle tracking, a
// scheduler with timeout-based reissue, client-reliability tracking,
// sticky-file affinity and pluggable assignment policies (Policy, see
// DESIGN.md §7), a work-generator/validator/assimilator pipeline, and a
// real HTTP server/client pair. The lifecycle and scheduling mechanics
// are pure (no I/O, explicit clock) so the same code drives both the
// networked deployment and the discrete-event simulator.
//
// Two features exist for the real-mode scenario driver (DESIGN.md §9):
// per-client shaping controls (ClientControl) that the server piggybacks
// on scheduler replies — execution pacing, straggler slowdown,
// preemption, RTT injection, graceful detach — so fault injection
// reaches goroutine and OS-process clients alike through the HTTP
// protocol; and the scheduler's per-policy assignment mix
// (AssignmentMix), the fidelity report's view of which policy issued
// what share of the work across hot swaps.
package boinc

import "fmt"

// WorkunitStatus is the lifecycle state of a workunit.
type WorkunitStatus int

// Workunit lifecycle states.
const (
	// WUPending means the workunit is waiting to be assigned.
	WUPending WorkunitStatus = iota
	// WUInProgress means at least one result is outstanding.
	WUInProgress
	// WUDone means a valid canonical result has been assimilated.
	WUDone
	// WUFailed means the error budget is exhausted.
	WUFailed
)

// String renders the status for logs.
func (s WorkunitStatus) String() string {
	switch s {
	case WUPending:
		return "pending"
	case WUInProgress:
		return "in-progress"
	case WUDone:
		return "done"
	case WUFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Workunit is one unit of distributable work — for VCDL, one training
// subtask (a data shard plus the current server parameter copy).
type Workunit struct {
	ID   int64
	Name string
	// App names the application that must execute this workunit. A BOINC
	// server hosts many applications (§II-C); clients register an App
	// implementation per name. Empty means the client's default app.
	App string
	// InputFiles names the files the client must download (model
	// architecture, parameter copy, data shard). Sticky files among them
	// are cached client-side.
	InputFiles []string
	// BlobFiles maps input file names to content digests for files also
	// published on the blob data plane (/blob/{digest}). Blob-enabled
	// clients fetch those by digest — resumable, verified, digest-cached
	// — instead of by name from /download; others ignore the map.
	BlobFiles map[string]string
	// Payload is opaque application data shipped with the assignment.
	Payload []byte
	// MaxErrors is the error/timeout budget before the workunit is
	// declared failed. Zero means the scheduler default.
	MaxErrors int
	// Replication is the number of concurrent copies to issue
	// (computational redundancy, §II-C). Zero means 1.
	Replication int
	// Quorum is the number of valid results required before the workunit
	// is considered done (BOINC's redundancy-based verification, §II-C).
	// Zero means 1; Replication is raised to at least Quorum.
	Quorum int

	status WorkunitStatus
	errors int
	// active counts outstanding results.
	active int
	// valid counts accepted results toward the quorum.
	valid int
	// queuedAt is when the workunit last became assignable (creation or
	// reissue), in the scheduler's time base; assignment latency is
	// measured from here.
	queuedAt float64

	// Scheduler index state, kept on the record so that it is released
	// with it rather than in side maps keyed by ID.
	//
	// queued counts this workunit's copies in PendingCount and qhead is
	// the queue slot of the first of them (-1 for none). The two differ
	// only for a failed workunit: its copies leave the queue but, as
	// they always have, stay in the count until the workunit is done.
	queued, qhead int
	// filesHash is hashFiles(InputFiles), the hash of the bucket key.
	filesHash uint64
	// round is the request counter that last offered this workunit to a
	// policy; only picks stamped with the current round may issue.
	round int64
	// assignedTo records which clients ever received a copy of a
	// replicated workunit (BOINC's one-result-per-user rule, so replicas
	// verify each other across machines). Nil for singletons and once
	// the workunit is terminal.
	assignedTo map[string]bool
	// rejectedBy records the clients whose rejected upload for this
	// workunit was charged to its error budget; a later rejection from one
	// of them reissues without charging (DESIGN.md §7). Nil until the
	// first rejection and once the workunit is terminal.
	rejectedBy map[string]bool
}

// terminal reports whether the workunit is done or failed.
func (w *Workunit) terminal() bool { return w.status == WUDone || w.status == WUFailed }

// ValidResults returns how many results have been accepted so far.
func (w *Workunit) ValidResults() int { return w.valid }

// Status returns the workunit's lifecycle state.
func (w *Workunit) Status() WorkunitStatus { return w.status }

// Errors returns how many results for this workunit timed out or failed.
func (w *Workunit) Errors() int { return w.errors }

// ResultStatus is the lifecycle state of one issued result.
type ResultStatus int

// Result lifecycle states.
const (
	// ResInProgress means the result is on a client.
	ResInProgress ResultStatus = iota
	// ResSuccess means the result returned and validated.
	ResSuccess
	// ResTimedOut means the deadline passed without an upload.
	ResTimedOut
	// ResError means the client reported failure or validation rejected
	// the output.
	ResError
	// ResAbandoned means the workunit completed via another replica first.
	ResAbandoned
)

// String renders the status for logs.
func (s ResultStatus) String() string {
	switch s {
	case ResInProgress:
		return "in-progress"
	case ResSuccess:
		return "success"
	case ResTimedOut:
		return "timed-out"
	case ResError:
		return "error"
	case ResAbandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result is one issued instance of a workunit on one client.
type Result struct {
	ID       int64
	WUID     int64
	ClientID string
	SentAt   float64
	Deadline float64
	Status   ResultStatus
}
