package exp

import (
	"context"
	"fmt"

	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/metrics"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
	"vcdl/internal/vcsim"
)

// This file expresses the paper's multi-run evaluations as spec sweeps.
// Each FigN helper builds one Spec per run and executes them through
// Sweep, so `cmd/experiments -jobs N` and the benchmarks parallelize the
// grids without touching the per-run code path.

// Fig2Specs builds Figure 2's four configurations (P1C3T2, P1C3T8,
// P3C3T8, P5C5T2 at α = 0.95).
func Fig2Specs(s *PaperSetup) ([]*Spec, error) {
	var specs []*Spec
	for _, c := range []struct{ pn, cn, tn int }{
		{1, 3, 2}, {1, 3, 8}, {3, 3, 8}, {5, 5, 2},
	} {
		spec, err := New(s.Job, s.Corpus,
			Topology(c.pn, c.cn, c.tn),
			Alpha(opt.Constant{V: 0.95}))
		if err != nil {
			return nil, fmt.Errorf("fig2 P%dC%dT%d: %w", c.pn, c.cn, c.tn, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Fig2 reproduces Figure 2: validation accuracy vs training time for the
// four distributed configurations.
func Fig2(ctx context.Context, s *PaperSetup, opts ...SweepOption) ([]*Result, error) {
	specs, err := Fig2Specs(s)
	if err != nil {
		return nil, err
	}
	return Sweep(ctx, specs, opts...)
}

// Fig3Row is one curve of Figure 3: training time (hours) for a PnCn
// pair across simultaneous-subtask counts.
type Fig3Row struct {
	Label string
	Tn    []int
	Hours []float64
}

// fig3Groups and fig3Tns define the Figure 3 grid.
var (
	fig3Groups = []struct {
		label  string
		pn, cn int
	}{
		{"P1C3", 1, 3}, {"P3C3", 3, 3}, {"P5C5", 5, 5},
	}
	fig3Tns = []int{2, 4, 8}
)

// Fig3Specs builds the nine-run Figure 3 grid in row-major order.
func Fig3Specs(s *PaperSetup) ([]*Spec, error) {
	var specs []*Spec
	for _, g := range fig3Groups {
		for _, tn := range fig3Tns {
			spec, err := New(s.Job, s.Corpus,
				Topology(g.pn, g.cn, tn),
				Alpha(opt.Constant{V: 0.95}))
			if err != nil {
				return nil, fmt.Errorf("fig3 %sT%d: %w", g.label, tn, err)
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// Fig3 reproduces Figure 3: total training time for P1C3, P3C3 and P5C5
// at T ∈ {2, 4, 8}, α = 0.95.
func Fig3(ctx context.Context, s *PaperSetup, opts ...SweepOption) ([]Fig3Row, error) {
	specs, err := Fig3Specs(s)
	if err != nil {
		return nil, err
	}
	results, err := Sweep(ctx, specs, opts...)
	if err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for gi, g := range fig3Groups {
		row := Fig3Row{Label: g.label, Tn: fig3Tns}
		for ti := range fig3Tns {
			row.Hours = append(row.Hours, results[gi*len(fig3Tns)+ti].Hours)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4Specs builds the Figure 4 α sweep on P3C3T4, one spec per variant
// of vcsim.Fig4Variants.
func Fig4Specs(s *PaperSetup) ([]*Spec, error) {
	var specs []*Spec
	for _, v := range vcsim.Fig4Variants() {
		spec, err := New(s.Job, s.Corpus,
			Topology(3, 3, 4),
			Alpha(v.Schedule),
			Name("alpha="+v.Label))
		if err != nil {
			return nil, fmt.Errorf("fig4 alpha=%s: %w", v.Label, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Fig4 reproduces Figure 4: the effect of the VC-ASGD hyperparameter on
// P3C3T4, including the per-epoch accuracy range (error bars). Figure 5
// is a zoom of the same data (see ZoomWindow).
func Fig4(ctx context.Context, s *PaperSetup, opts ...SweepOption) ([]*Result, error) {
	specs, err := Fig4Specs(s)
	if err != nil {
		return nil, err
	}
	return Sweep(ctx, specs, opts...)
}

// Fig6Result pairs the distributed run with the single-instance baseline.
type Fig6Result struct {
	DistVal, DistTest     metrics.Series
	SerialVal, SerialTest metrics.Series
}

// Fig6 reproduces Figure 6: distributed P5C5T2 with the Var α schedule
// (validation and test accuracy) against serial single-instance training
// on the server configuration, mapped to virtual time.
func Fig6(s *PaperSetup, serialEpochs int) (*Fig6Result, error) {
	spec, err := New(s.Job, s.Corpus,
		Topology(5, 5, 2),
		Alpha(opt.EpochFraction{}),
		RecordTest())
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	dist, err := Run(spec)
	if err != nil {
		return nil, fmt.Errorf("fig6 distributed: %w", err)
	}
	serialVal, serialTest, err := vcsim.SerialBaseline(s, spec.Config(), serialEpochs)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	return &Fig6Result{
		DistVal:    dist.Curve,
		DistTest:   dist.TestCurve,
		SerialVal:  serialVal,
		SerialTest: serialTest,
	}, nil
}

// PreemptGridSpecs builds the §IV-E simulated grid: the P5C5T2 fleet
// under each preemption probability with the paper's 5-minute deadline.
// probs[0] is conventionally 0, the clean baseline.
func PreemptGridSpecs(s *PaperSetup, probs []float64) ([]*Spec, error) {
	var specs []*Spec
	for _, p := range probs {
		spec, err := New(s.Job, s.Corpus,
			Topology(5, 5, 2),
			Alpha(opt.Constant{V: 0.95}),
			Timeout(300),
			Preempt(p),
			Name(fmt.Sprintf("p=%.0f%%", p*100)))
		if err != nil {
			return nil, fmt.Errorf("preempt p=%v: %w", p, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// PolicyPoint labels one run of the scheduling-policy comparison grid.
type PolicyPoint struct {
	Policy  string
	Preempt float64
}

// SchedPolicySpecs builds the policy-ablation grid: every named
// scheduling policy on the P5C5T2 fleet across the §IV-E preemption
// probabilities with the paper's 5-minute deadline (the same grid
// PreemptGridSpecs sweeps for the default policy). Specs are returned
// row-major (policy-major), one PolicyPoint per spec.
func SchedPolicySpecs(s *PaperSetup, policies []string, probs []float64) ([]*Spec, []PolicyPoint, error) {
	var specs []*Spec
	var points []PolicyPoint
	for _, name := range policies {
		for _, p := range probs {
			spec, err := New(s.Job, s.Corpus,
				Topology(5, 5, 2),
				Alpha(opt.Constant{V: 0.95}),
				Timeout(300),
				Preempt(p),
				WithPolicy(name),
				Name(fmt.Sprintf("%s/p=%.0f%%", name, p*100)))
			if err != nil {
				return nil, nil, fmt.Errorf("schedpolicy %s p=%v: %w", name, p, err)
			}
			specs = append(specs, spec)
			points = append(points, PolicyPoint{Policy: name, Preempt: p})
		}
	}
	return specs, points, nil
}

// AblationSpecs builds the A1 update-rule ablation: each rule on P3C3T4
// under 5% preemption with a 10-minute deadline.
func AblationSpecs(s *PaperSetup) ([]*Spec, error) {
	var specs []*Spec
	for _, rule := range vcsim.AblationRules(s.Job.Subtasks) {
		spec, err := New(s.Job, s.Corpus,
			Topology(3, 3, 4),
			Rule(rule),
			Preempt(0.05),
			Timeout(600),
			Name(rule.Name()))
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", rule.Name(), err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Scale-grid constants: the compute-backend capacity experiment
// (`cmd/experiments -exp scale`) keeps per-client work constant so total
// subtask math grows linearly with the fleet, and replicates every
// subtask so the redundancy the cached backend refunds is on the table.
const (
	// ScaleShardSamples is the per-subtask shard size (subtasks = clients).
	ScaleShardSamples = 16
	// ScaleReplication is the redundancy of every scale-grid workunit.
	ScaleReplication = 4
	// ScaleTasksPerClient gives each client enough slots that all
	// replicas are in flight at once (slots = clients × Tn = copies).
	ScaleTasksPerClient = 4
)

// ScaleWorkload generates the fleet-proportional workload for the scale
// grid: one shard (subtask) per client at ScaleShardSamples samples each,
// a single-channel quick CNN, and a small validation subset so client
// math — not server evaluation — dominates.
func ScaleWorkload(seed int64, clients, epochs int) (core.JobConfig, *data.Corpus, error) {
	if clients < ScaleReplication {
		return core.JobConfig{}, nil, fmt.Errorf("exp: scale fleet %d smaller than replication %d", clients, ScaleReplication)
	}
	dc := data.DefaultSynthConfig()
	dc.C = 1
	dc.NTrain = ScaleShardSamples * clients
	dc.NVal, dc.NTest = 200, 200
	dc.NoiseStd = 0.5
	dc.Seed = seed
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		return core.JobConfig{}, nil, err
	}
	job := core.DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
	job.Subtasks = clients
	job.MaxEpochs = epochs
	job.BatchSize = 8
	job.LocalPasses = 2
	job.LearningRate = 0.01
	job.ValSubset = 16
	job.Seed = seed
	return job, corpus, nil
}

// ScalePoint labels one cell of the compute-backend scale grid.
type ScalePoint struct {
	Clients int
	Backend string
	// Workers sizes the compute pool (0: the default, GOMAXPROCS).
	Workers int
}

// ScaleSpec builds one scale-grid cell: the fleet-proportional workload
// on a Cn-client fleet with every subtask issued ScaleReplication times,
// computed by the named backend.
func ScaleSpec(job core.JobConfig, corpus *data.Corpus, pt ScalePoint) (*Spec, error) {
	spec, err := New(job, corpus,
		Topology(4, pt.Clients, ScaleTasksPerClient),
		Replicate(ScaleReplication),
		WithBackend(pt.Backend),
		WithComputeWorkers(pt.Workers),
		Name(fmt.Sprintf("C%d/%s", pt.Clients, core.BackendSpecName(pt.Backend))))
	if err != nil {
		return nil, fmt.Errorf("scale C%d %s: %w", pt.Clients, pt.Backend, err)
	}
	return spec, nil
}

// ScaleBackends is the backend grid each fleet size sweeps: the real
// baseline, the inline memo, the pool, the pooled memo (what bare
// "cached" selects) and the subsampled surrogate. Pools take their
// default size, the host's GOMAXPROCS; the cell records it.
func ScaleBackends() []ScalePoint {
	return []ScalePoint{
		{Backend: "real"},
		{Backend: "real+cached"},
		{Backend: "parallel"},
		{Backend: "parallel+cached"},
		{Backend: "surrogate"},
	}
}

// ZoomWindow slices a curve to the [loH, hiH] hour window (Figure 5).
func ZoomWindow(series metrics.Series, loH, hiH float64) metrics.Series {
	return vcsim.ZoomWindow(series, loH, hiH)
}

// StoreComparison is the §IV-D store-latency analysis.
type StoreComparison = vcsim.StoreComparison

// CompareStores computes the §IV-D table from the calibrated profiles.
func CompareStores() StoreComparison { return vcsim.CompareStores() }
