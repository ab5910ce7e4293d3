package boinc

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// This file is the pluggable scheduling-policy API. The scheduler's
// assignment decision — which pending workunits a requesting client
// receives, in what order — is a Policy; everything else (eligibility,
// the one-result-per-user replication rule, error budgets, deadlines,
// queue bookkeeping) stays mechanics inside Scheduler.RequestWork, so a
// policy can never violate a lifecycle invariant, only express a
// preference among already-eligible candidates.
//
// Determinism rules: Select must be a pure function of its arguments.
// Policies must not read wall-clock time, global RNG state or any other
// ambient input; stochastic policies derive their randomness from
// PolicyView.Seed and PolicyView.Request (the run seed and the
// monotonic request counter), which is what keeps simulations
// reproducible and the sweep-determinism contract (DESIGN.md §6) intact.
// The view and its Candidates slice are only valid for the duration of
// the Select call; policies must not retain them.

// Candidate is one assignable workunit in a PolicyView. All eligibility
// filtering has already happened: every candidate may legally be issued
// to the requesting client.
type Candidate struct {
	// WUID identifies the workunit; Select returns these.
	WUID int64
	// Pos orders the view by queue age and means nothing else: the
	// candidate with the lower Pos had its first queued copy enqueued
	// earlier. Values are unique and ascending within a view, so (score,
	// Pos) is always a total order, but they are not dense, not an index
	// into anything, and not comparable between views.
	Pos int
	// CacheScore counts how many of the workunit's input files the
	// requesting client already caches (sticky files, §III-B).
	CacheScore int
	// Errors is how many results for this workunit have timed out or
	// failed so far; > 0 marks a retry.
	Errors int
}

// ClientInfo is the read-only scheduler state of the requesting client.
type ClientInfo struct {
	// Reliability is the client's exponentially-averaged success score
	// in [0,1] ("assign subtasks to more reliable clients", §III-B).
	Reliability float64
}

// PolicyView is the read-only snapshot a policy decides over.
type PolicyView struct {
	// Seed is the run seed (SchedulerConfig.Seed); seeded policies mix
	// it with Request for per-call determinism.
	Seed int64
	// Request is the monotonic RequestWork call counter.
	Request int64
	// Sticky reports whether sticky-file affinity is enabled; the paper
	// policy ignores CacheScore when it is off.
	Sticky bool
	// ReliabilityFloor is the scheduler's current retry gate.
	ReliabilityFloor float64
	// Candidates lists the assignable workunits, in pending-queue order.
	Candidates []Candidate
}

// Policy chooses which eligible workunits a requesting client receives.
// Select returns up to max workunit IDs drawn from view.Candidates, in
// preference order. The scheduler ignores IDs that are not candidates,
// drops duplicates and truncates to max, so a policy bug degrades to a
// smaller assignment, never an invalid one.
type Policy interface {
	// Name identifies the policy in registries, traces and CSVs.
	Name() string
	Select(view PolicyView, client ClientInfo, max int) []int64
}

// PolicyFactory builds a policy instance from string arguments (the
// form scenario files and CLI flags use, e.g. "random 42").
type PolicyFactory func(args ...string) (Policy, error)

// policyRegistry maps policy names to factories. Built-ins register in
// init; callers add custom policies with RegisterPolicy.
var policyRegistry = map[string]PolicyFactory{}

// RegisterPolicy adds a named policy factory. Registering a duplicate
// name panics: policy names appear in scenario files and experiment
// CSVs, so silent replacement would corrupt comparisons.
func RegisterPolicy(name string, factory PolicyFactory) {
	if name == "" || factory == nil {
		panic("boinc: RegisterPolicy with empty name or nil factory")
	}
	if _, dup := policyRegistry[name]; dup {
		panic("boinc: duplicate policy " + name)
	}
	policyRegistry[name] = factory
}

// NewPolicy instantiates a registered policy by name.
func NewPolicy(name string, args ...string) (Policy, error) {
	factory, ok := policyRegistry[name]
	if !ok {
		return nil, fmt.Errorf("boinc: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
	}
	p, err := factory(args...)
	if err != nil {
		return nil, fmt.Errorf("boinc: policy %s: %w", name, err)
	}
	return p, nil
}

// PolicyNames lists the registered policies in sorted order.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Term is one weighted scoring dimension of a Scored policy. Exactly one
// of Score and ClassScore is set, and which one is the term's whole
// declaration of what it needs from the scheduler.
type Term struct {
	// Weight scales the term's contribution to a candidate's score.
	Weight float64
	// Score rates one candidate; higher is more preferred. A policy with
	// such a term is handed every eligible candidate on every request.
	Score func(view PolicyView, client ClientInfo, c Candidate) float64
	// ClassScore rates a candidate from its CacheScore alone — all its
	// signature can see. Candidates whose workunits share an input-file
	// list then share a score, so when every term of a policy is
	// class-scored the scheduler rates each such class once and never
	// materialises the view: view.Candidates is nil here, and a request
	// costs O(classes), not O(pending).
	ClassScore func(view PolicyView, client ClientInfo, cacheScore int) float64
}

// Scored is the composable policy combinator: a candidate's total score
// is the weighted sum of its terms, ties break FIFO (lower Pos first).
// Most built-in policies are Scored instances with one term, so new
// policies are weighted scoring terms rather than forks of the
// scheduler's assignment loop.
type Scored struct {
	// Label is the policy name; empty renders as "scored".
	Label string
	Terms []Term
}

// Name implements Policy.
func (p *Scored) Name() string {
	if p.Label == "" {
		return "scored"
	}
	return p.Label
}

// Select implements Policy: top-max candidates by weighted score, FIFO
// tie-break.
func (p *Scored) Select(view PolicyView, client ClientInfo, max int) []int64 {
	return selectTopK(view.Candidates, max, func(c Candidate) float64 {
		return p.total(view, client, c)
	})
}

// total is a candidate's weighted score.
func (p *Scored) total(view PolicyView, client ClientInfo, c Candidate) float64 {
	total := 0.0
	for _, t := range p.Terms {
		if t.Score != nil {
			total += t.Weight * t.Score(view, client, c)
		} else {
			total += t.Weight * t.ClassScore(view, client, c.CacheScore)
		}
	}
	return total
}

// classScored reports whether every term is class-scored, i.e. whether
// the scheduler may select through its bucket index instead of a view.
func (p *Scored) classScored() bool {
	for _, t := range p.Terms {
		if t.Score != nil {
			return false
		}
	}
	return true
}

// topKStack is the rank-buffer size kept on the stack: requests for up
// to this many slots (every real client; BOINC hands out single-digit
// batches) rank candidates with zero heap traffic beyond the returned
// ID slice.
const topKStack = 16

// selectTopK picks the k highest-scoring candidates (ties broken by
// queue order) without sorting the whole slice: one pass maintains a
// small best-k array, so a full view costs O(n·k) with k the handful of
// slots a client asks for — not O(n log n) — and allocates only the
// result slice (the rank buffer lives on the stack for k ≤ topKStack).
func selectTopK(cands []Candidate, k int, score func(Candidate) float64) []int64 {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	if k > len(cands) {
		k = len(cands)
	}
	type ranked struct {
		score float64
		pos   int
		wuid  int64
	}
	var stack [topKStack]ranked
	var best []ranked
	if k <= topKStack {
		best = stack[:0]
	} else {
		best = make([]ranked, 0, k)
	}
	better := func(a, b ranked) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.pos < b.pos
	}
	for _, c := range cands {
		r := ranked{score: score(c), pos: c.Pos, wuid: c.WUID}
		if len(best) == k && !better(r, best[k-1]) {
			continue
		}
		// Insert in rank order, dropping the current worst when full.
		i := len(best)
		if i < k {
			best = append(best, r)
		} else {
			i = k - 1
		}
		for ; i > 0 && better(r, best[i-1]); i-- {
			best[i] = best[i-1]
		}
		best[i] = r
	}
	out := make([]int64, len(best))
	for i, r := range best {
		out[i] = r.wuid
	}
	return out
}

// paperPolicy returns the default policy, byte-identical to the
// scheduler's original hard-coded behaviour: prefer workunits whose
// input files the client caches (most cached files first) when sticky
// affinity is on, then FIFO.
func paperPolicy() *Scored {
	return &Scored{Label: "paper", Terms: []Term{{
		Weight: 1,
		ClassScore: func(view PolicyView, _ ClientInfo, cacheScore int) float64 {
			if !view.Sticky {
				return 0
			}
			return float64(cacheScore)
		},
	}}}
}

// randomPolicy assigns a uniformly random eligible subset. It is
// deterministic: the shuffle RNG is seeded from the run seed (mixed
// with an optional explicit seed) and the request counter, so the same
// run replays identically while successive requests still differ.
type randomPolicy struct {
	seed int64
}

func (p *randomPolicy) Name() string { return "random" }

func (p *randomPolicy) Select(view PolicyView, _ ClientInfo, max int) []int64 {
	n := len(view.Candidates)
	if max <= 0 || n == 0 {
		return nil
	}
	if max > n {
		max = n
	}
	rng := rand.New(rand.NewSource(splitmix64(uint64(view.Seed) ^ uint64(p.seed)*0x9e3779b97f4a7c15 ^ uint64(view.Request))))
	// Partial Fisher-Yates: only the first max draws are needed.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int64, max)
	for i := 0; i < max; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = view.Candidates[idx[i]].WUID
	}
	return out
}

// splitmix64 is the standard 64-bit mixer; it decorrelates the
// (seed, request) stream fed to the per-call shuffle RNG.
func splitmix64(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) & (1<<63 - 1))
}

func init() {
	noArgs := func(name string, build func() Policy) {
		RegisterPolicy(name, func(args ...string) (Policy, error) {
			if len(args) != 0 {
				return nil, fmt.Errorf("takes no arguments, got %v", args)
			}
			return build(), nil
		})
	}
	noArgs("paper", func() Policy { return paperPolicy() })
	noArgs("fifo", func() Policy {
		// No terms: every score is 0 and queue order decides.
		return &Scored{Label: "fifo"}
	})
	noArgs("reliability-weighted", func() Policy {
		// Steer retried (risky) workunits toward clients above the
		// reliability floor and away from those below it; fresh work
		// stays FIFO.
		return &Scored{Label: "reliability-weighted", Terms: []Term{{
			Weight: 1,
			Score: func(view PolicyView, client ClientInfo, c Candidate) float64 {
				return float64(c.Errors) * (client.Reliability - view.ReliabilityFloor)
			},
		}}}
	})
	RegisterPolicy("random", func(args ...string) (Policy, error) {
		switch len(args) {
		case 0:
			return &randomPolicy{}, nil
		case 1:
			seed, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q", args[0])
			}
			return &randomPolicy{seed: seed}, nil
		default:
			return nil, fmt.Errorf("want at most one seed argument, got %v", args)
		}
	})
}
