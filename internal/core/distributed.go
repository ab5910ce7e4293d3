package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"vcdl/internal/blob"
	"vcdl/internal/boinc"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/obs"
	"vcdl/internal/ps"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// Checkpoint metric families (DESIGN.md §11): the epoch of the last
// durable snapshot and how many times a failover rolled the live copy
// back to one.
const (
	MetricCkptEpoch    = "vcdl_ckpt_epoch"
	MetricCkptSaves    = "vcdl_ckpt_saves_total"
	MetricCkptRestores = "vcdl_ckpt_restores_total"
)

// MetricEvalQueueDepth is the gauge of results blended into the model and
// not yet scored (DESIGN.md §15). It sits at 0 or 1 while scoring keeps up
// with the uploads and at evalQueueBound once uploads are being held back.
const MetricEvalQueueDepth = "vcdl_eval_queue_depth"

// evalQueueBound is how many blended results may be waiting for their
// score before an upload handler blocks, as every handler did when
// scoring ran inside it. It only has to cover a burst: a deeper queue
// would not score any faster, and each waiting result holds a parameter
// vector.
const evalQueueBound = 4

// SubtaskPayload is the opaque payload attached to each training workunit:
// which epoch and shard it covers and which files carry the inputs.
type SubtaskPayload struct {
	Epoch      int    `json:"epoch"`
	Shard      int    `json:"shard"`
	ModelFile  string `json:"model_file"`
	ParamsFile string `json:"params_file"`
	ShardFile  string `json:"shard_file"`
}

// NewTrainingApp returns the client-side application (the TensorFlow
// stand-in) for a boinc.Client: it decodes the model spec, parameter copy
// and data shard from the downloaded files, trains, and returns the
// encoded updated parameters. The app keeps one Executor for as long
// as the model file's bytes stay the same, so a daemon's subtasks (and
// its concurrent slots) recycle the executor's scratch arenas; a
// different model file rebuilds it.
func NewTrainingApp(cfg JobConfig) boinc.App {
	var (
		mu    sync.Mutex
		model []byte
		exec  *Executor
	)
	executorFor := func(modelFile []byte) (*Executor, error) {
		mu.Lock()
		defer mu.Unlock()
		if exec != nil && bytes.Equal(model, modelFile) {
			return exec, nil
		}
		spec, err := DecodeSpec(modelFile)
		if err != nil {
			return nil, err
		}
		builder, err := spec.Builder()
		if err != nil {
			return nil, err
		}
		execCfg := cfg
		execCfg.Builder = builder
		// The client owns the downloaded bytes; keep a private copy.
		model, exec = bytes.Clone(modelFile), NewExecutor(execCfg)
		return exec, nil
	}
	return boinc.AppFunc(func(asn boinc.Assignment, inputs map[string][]byte) ([]byte, error) {
		var p SubtaskPayload
		if err := json.Unmarshal(asn.Payload, &p); err != nil {
			return nil, fmt.Errorf("core: bad payload: %w", err)
		}
		exec, err := executorFor(inputs[p.ModelFile])
		if err != nil {
			return nil, err
		}
		params, err := wire.DecodeParams(inputs[p.ParamsFile])
		if err != nil {
			return nil, fmt.Errorf("core: decode params: %w", err)
		}
		shard, err := data.Decode(inputs[p.ShardFile])
		if err != nil {
			return nil, fmt.Errorf("core: decode shard: %w", err)
		}
		updated, _ := exec.Run(params, shard, SubtaskSeed(cfg.Seed, p.Epoch, p.Shard))
		return wire.EncodeParams(updated)
	})
}

// Distributed wires a complete training job onto a BOINC-style server: the
// work generator publishes shard/model/parameter files and one workunit
// per subtask; the assimilator hands each canonical result to the
// Trainer and generates the next epoch until it reports stop. Clients
// are external boinc.Client daemons pointed at the server.
type Distributed struct {
	server      *boinc.Server
	group       *ps.Group
	trainer     *Trainer
	replication int
	start       time.Time

	// paramCount is the model's parameter count, fixed at construction:
	// the only length an upload may decode to. decoded recycles what
	// validate hands assimilate: a view of the upload's body, or a
	// vector of its own where the host allows no view.
	paramCount int
	decoded    sync.Pool // of *decodedParams
	// Test seams, left alone in production: check is the one place an
	// upload is validated; onRelease sees each upload's vector as the
	// handler lets go of it; onScore sees each blended copy, with its
	// ticket, as the evaluator takes it off the queue; onUnhold sees each
	// read-back as it goes back to the store.
	check     func(blob []byte, n int, spare *[]float64) ([]float64, error)
	onRelease func(params []float64)
	onScore   func(ticket int, cur []float64)
	onUnhold  func(cur []float64)

	mu     sync.Mutex
	shards []*data.Dataset
	result RunResult
	done   chan struct{}
	failed error

	// The upload handler blends a result and acks it; grading it is the
	// evaluator's job (DESIGN.md §15). evalMu guards the hand-over: the
	// blended copies wait in evalQueue in ticket order (tickets counts the
	// results queued so far, scored is the last ticket the evaluator has
	// finished with, and their difference is what evalQueueBound bounds
	// and evalDepth shows), evaluating says a goroutine is draining the
	// queue, and closed that the job is done or failed and nothing more
	// is scored. evalCond is broadcast whenever scored or closed changes.
	subtasks   int
	evalMu     sync.Mutex
	evalCond   *sync.Cond
	evalQueue  []blended
	tickets    int
	scored     int
	evaluating bool
	closed     bool
	evalDepth  *obs.Gauge

	// blobs, when non-nil, is the data plane: shard/model/parameter
	// files are also published content-addressed, and workunits carry
	// the digests (blobMu guards the name→digest map).
	blobs   *blob.Service
	blobMu  sync.Mutex
	digests map[string]string

	// checkpoint enables durable per-epoch snapshots through the PS
	// store; ckptEpoch/restores (under mu) track the recovery state.
	checkpoint bool
	ckptEpoch  int
	restores   int
	obsCkptEp  *obs.Gauge
	obsSaves   *obs.Counter
	obsRest    *obs.Counter
}

// DistOptions tunes the server-side half of a distributed job beyond
// NewDistributed's defaults. The zero value keeps historical behaviour.
type DistOptions struct {
	// Scheduler overrides the BOINC scheduler mechanics (nil keeps
	// boinc.DefaultSchedulerConfig; real-mode scenario runs use it to
	// scale the result deadline onto wall clock).
	Scheduler *boinc.SchedulerConfig
	// Policy selects the scheduler's assignment policy (nil keeps the
	// default paper policy).
	Policy boinc.Policy
	// Replication issues this many concurrent copies of every workunit
	// (0/1 = single copy).
	Replication int
	// Blobs, when non-nil, publishes every distributable file on the
	// content-addressed data plane as well as /download, and stamps
	// workunits with the digests (mount it with Server.EnableBlobs).
	Blobs *blob.Service
	// Checkpoint persists an epoch-stamped parameter snapshot through
	// the PS store at every epoch close, and makes SetPServers restore
	// from it on failover. If the store already holds a checkpoint at
	// construction, the job resumes after it instead of starting fresh.
	Checkpoint bool
	// ResumeEpoch/ResumeParams, when ResumeParams is non-nil, seed the
	// job from an external checkpoint (e.g. a file saved at SIGTERM):
	// ResumeParams is published and training continues at ResumeEpoch+1.
	ResumeEpoch  int
	ResumeParams []float64
	// Metrics, when set, registers vcdl_eval_queue_depth and, with
	// Checkpoint, the vcdl_ckpt_* families.
	Metrics *obs.Registry
}

// NewDistributed creates the server-side half of a distributed training
// job. spec must describe the same architecture cfg.Builder builds (use
// spec.Builder() for cfg.Builder to guarantee it).
func NewDistributed(cfg JobConfig, spec ModelSpec, corpus *data.Corpus, pn int, st store.Store) (*Distributed, error) {
	return NewDistributedJob(cfg, spec, corpus, pn, st, DistOptions{})
}

// NewDistributedJob is NewDistributed with explicit DistOptions.
func NewDistributedJob(cfg JobConfig, spec ModelSpec, corpus *data.Corpus, pn int, st store.Store, opts DistOptions) (*Distributed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = store.NewStrong()
	}
	if pn < 1 {
		pn = 1
	}
	net := nn.NewNetwork(cfg.Builder)
	d := &Distributed{
		paramCount:  net.ParamCount(),
		check:       wire.ViewParams,
		group:       ps.NewGroup(pn, st, cfg.Alpha),
		replication: opts.Replication,
		start:       time.Now(),
		shards:      cfg.SplitShards(corpus),
		done:        make(chan struct{}),
		blobs:       opts.Blobs,
		digests:     make(map[string]string),
		checkpoint:  opts.Checkpoint,
		subtasks:    cfg.Subtasks,
		evalDepth:   new(obs.Gauge),
	}
	d.evalCond = sync.NewCond(&d.evalMu)
	if opts.Metrics != nil {
		d.evalDepth = opts.Metrics.Gauge(MetricEvalQueueDepth, "blended results waiting to be scored")
	}
	if opts.Metrics != nil && opts.Checkpoint {
		d.obsCkptEp = opts.Metrics.Gauge(MetricCkptEpoch, "epoch of the last durable parameter checkpoint")
		d.obsSaves = opts.Metrics.Counter(MetricCkptSaves, "durable parameter checkpoints written")
		d.obsRest = opts.Metrics.Counter(MetricCkptRestores, "failovers restored from the checkpoint store")
	}
	d.result.Curve.Name = fmt.Sprintf("distributed-P%d", pn)
	sched := boinc.DefaultSchedulerConfig()
	if opts.Scheduler != nil {
		sched = *opts.Scheduler
	}
	d.server = boinc.NewServer(sched, d.validate, d.assimilate)
	d.server.SetMaxUpload(int64(wire.MaxEncodedSize(d.paramCount)))
	if opts.Policy != nil {
		d.server.Scheduler(func(s *boinc.Scheduler) { s.SetPolicy(opts.Policy) })
	}

	// Seed the live parameter copy: resume from an external checkpoint
	// (a file a SIGTERMed server saved), resume from a checkpoint already
	// in the PS store, or start fresh.
	params := opts.ResumeParams
	d.ckptEpoch = opts.ResumeEpoch
	if params == nil && opts.Checkpoint {
		if e, saved, err := d.group.LatestCheckpoint(); err == nil && e > 0 {
			params, d.ckptEpoch = saved, e
		}
	}
	if params == nil {
		params, d.ckptEpoch = InitialParams(net, cfg, corpus.Train), 0
	}
	if err := d.group.Publish(params); err != nil {
		return nil, err
	}
	d.trainer = NewTrainer(cfg, corpus.Val, d.group, d.ckptEpoch+1)
	if d.obsCkptEp != nil && d.ckptEpoch > 0 {
		d.obsCkptEp.Set(float64(d.ckptEpoch))
	}

	specBlob, err := EncodeSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := d.publishFile("model.json", specBlob); err != nil {
		return nil, err
	}
	jobBlob, err := EncodeTrainParams(TrainParamsOf(cfg))
	if err != nil {
		return nil, err
	}
	if err := d.publishFile(TrainParamsFile, jobBlob); err != nil {
		return nil, err
	}
	blobs, err := data.EncodeAll(d.shards)
	if err != nil {
		return nil, err
	}
	for i, enc := range blobs {
		if err := d.publishFile(shardFileName(i), enc); err != nil {
			return nil, err
		}
	}
	if err := d.generateEpoch(d.trainer.Epoch()); err != nil {
		return nil, err
	}
	return d, nil
}

// publishFile stores a downloadable file and, with the data plane on,
// also publishes it content-addressed, remembering its digest for
// workunit references.
func (d *Distributed) publishFile(name string, data []byte) error {
	d.server.PutFile(name, data)
	if d.blobs == nil {
		return nil
	}
	dg, err := d.blobs.Store().Put(data)
	if err != nil {
		return fmt.Errorf("core: publish blob %s: %w", name, err)
	}
	d.blobMu.Lock()
	d.digests[name] = dg
	d.blobMu.Unlock()
	return nil
}

// blobRefs returns the name→digest map for the given published files,
// or nil when the data plane is off.
func (d *Distributed) blobRefs(names ...string) map[string]string {
	if d.blobs == nil {
		return nil
	}
	d.blobMu.Lock()
	defer d.blobMu.Unlock()
	refs := make(map[string]string, len(names))
	for _, n := range names {
		if dg, ok := d.digests[n]; ok {
			refs[n] = dg
		}
	}
	return refs
}

func shardFileName(i int) string { return fmt.Sprintf("shard_%03d.npz", i) }

func paramsFileName(epoch int) string { return fmt.Sprintf("params_e%03d.h5", epoch) }

// Server exposes the underlying BOINC server (an http.Handler).
func (d *Distributed) Server() *boinc.Server { return d.server }

// PServers returns the current parameter-server pool size.
func (d *Distributed) PServers() int { return d.group.Size() }

// SetPServers resizes the parameter-server pool (failover when PS
// processes die, recovery when standbys join); assimilations in flight
// drain through whatever servers remain, sharing one store. With
// checkpointing on, a shrink restores the live parameter copy from the
// last durable snapshot — the dead servers may have left it torn or
// (on an eventual store) mid-merge — so the epoch resumes instead of
// restarting.
func (d *Distributed) SetPServers(n int) {
	old := d.group.Size()
	d.group.Resize(n)
	if !d.checkpoint || n >= old {
		return
	}
	if e, err := d.group.RestoreCheckpoint(); err == nil && e > 0 {
		d.mu.Lock()
		d.restores++
		d.mu.Unlock()
		if d.obsRest != nil {
			d.obsRest.Inc()
		}
		if d.obsCkptEp != nil {
			d.obsCkptEp.Set(float64(e))
		}
	}
}

// CheckpointEpoch returns the epoch of the last durable snapshot (0 =
// none yet).
func (d *Distributed) CheckpointEpoch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptEpoch
}

// CheckpointRestores returns how many failovers rolled the live copy
// back to a durable snapshot.
func (d *Distributed) CheckpointRestores() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.restores
}

// Snapshot returns the live parameter copy and the last closed epoch —
// what an external checkpointer (the vcdl-server SIGTERM handler)
// persists so a restarted server resumes instead of retraining.
func (d *Distributed) Snapshot() (epoch int, params []float64, err error) {
	params, err = d.group.Current()
	return d.trainer.Epoch() - 1, params, err
}

// Done is closed when training finishes (target met, epoch budget
// exhausted, or unrecoverable failure).
func (d *Distributed) Done() <-chan struct{} { return d.done }

// Result returns the training outcome; valid after Done is closed.
func (d *Distributed) Result() (RunResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.result, d.failed
}

// generateEpoch publishes the epoch's parameter snapshot and queues one
// workunit per shard. Callers must not hold d.mu.
func (d *Distributed) generateEpoch(epoch int) error {
	snapshot, err := d.group.Current()
	if err != nil {
		return err
	}
	enc, err := wire.EncodeParams(snapshot)
	if err != nil {
		return err
	}
	pf := paramsFileName(epoch)
	if err := d.publishFile(pf, enc); err != nil {
		return err
	}
	for i := range d.shards {
		payload, err := json.Marshal(SubtaskPayload{
			Epoch:      epoch,
			Shard:      i,
			ModelFile:  "model.json",
			ParamsFile: pf,
			ShardFile:  shardFileName(i),
		})
		if err != nil {
			return err
		}
		d.server.AddWorkunit(boinc.Workunit{
			Name:        fmt.Sprintf("train_e%03d_s%03d", epoch, i),
			InputFiles:  []string{"model.json", pf, shardFileName(i)},
			BlobFiles:   d.blobRefs("model.json", pf, shardFileName(i)),
			Payload:     payload,
			Replication: d.replication,
		})
	}
	return nil
}

// decodedParams is one upload's parameter vector as validate checked it:
// on a little-endian host a view of the pooled body buffer the upload was
// read into, elsewhere a copy in own. The upload handler holds it until
// it calls Release, after assimilate has returned, and the body buffer
// goes back to its pool straight after; nothing reads params after that.
type decodedParams struct {
	params []float64
	own    []float64
	d      *Distributed
}

// Release gives the vector up and returns the struct to its job's pool.
func (p *decodedParams) Release() {
	if p.d.onRelease != nil {
		p.d.onRelease(p.params)
	}
	p.params = nil
	p.d.decoded.Put(p)
}

// validate is the BOINC validator hook: an upload is acceptable if its
// frame — checked where it lies, once, here — holds a parameter vector of
// the model's length with a matching checksum and finite values. That
// vector rides to assimilate on the verdict, copied only where the host
// allows no view of the body.
func (d *Distributed) validate(wu *boinc.Workunit, output []byte) (boinc.Decoded, bool) {
	dp, _ := d.decoded.Get().(*decodedParams)
	if dp == nil {
		dp = &decodedParams{d: d}
	}
	var err error
	dp.params, err = d.check(output, d.paramCount, &dp.own)
	return dp, err == nil
}

// blended is one canonical result between the two halves of its
// assimilation: in the model, not yet graded. cur is the server copy
// read back after the blend, held in the store until the evaluator has
// scored it.
type blended struct {
	ticket int
	cur    ps.Held
}

// unhold gives a read-back back to the store.
func (d *Distributed) unhold(cur ps.Held) {
	if d.onUnhold != nil {
		d.onUnhold(cur.Params)
	}
	cur.Release()
}

// assimilate is the BOINC assimilator hook, and all of it that the
// volunteer waits for: blend what validate checked in output into the
// server copy (VC-ASGD), hold the copy read back after the blend, queue
// that for the evaluator under the next ticket and return, so the server
// acks the upload. Nothing queued refers to output, which the server
// reuses once the hook returns. A full queue holds the handler until the
// evaluator has caught up. Only the result that fills an epoch — every
// subtasks-th ticket — stays until it has been scored, because that
// closes the epoch: the next epoch's parameter file and workunits are
// then published before the ack, and a client that asks for work
// straight after it finds some.
func (d *Distributed) assimilate(wu *boinc.Workunit, output []byte, dec boinc.Decoded) {
	var p SubtaskPayload
	if err := json.Unmarshal(wu.Payload, &p); err != nil {
		d.finish(fmt.Errorf("core: assimilate payload: %w", err))
		return
	}
	cur, err := d.trainer.Blend(dec.(*decodedParams).params, p.Epoch)
	if err != nil {
		d.finish(err)
	}
	if cur.Params == nil { // the store failed, or training had already stopped
		return
	}

	d.evalMu.Lock()
	defer d.evalMu.Unlock()
	for d.tickets-d.scored >= evalQueueBound && !d.closed {
		d.evalCond.Wait()
	}
	if d.closed {
		d.unhold(cur)
		return
	}
	d.tickets++
	ticket := d.tickets
	d.evalQueue = append(d.evalQueue, blended{ticket: ticket, cur: cur})
	d.evalDepth.Set(float64(d.tickets - d.scored))
	if !d.evaluating {
		d.evaluating = true
		go d.evaluate()
	}
	if ticket%d.subtasks == 0 {
		for d.scored < ticket && !d.closed {
			d.evalCond.Wait()
		}
	}
}

// evaluate is the evaluator: one goroutine at a time, started by the
// upload that finds the queue unattended and gone as soon as the queue is
// empty or the job over, so an idle or finished job keeps none. It
// scores the queued copies in ticket order, which makes the validation
// curve a function of the order results were blended in, as it was when
// each handler scored its own.
func (d *Distributed) evaluate() {
	d.evalMu.Lock()
	for len(d.evalQueue) > 0 && !d.closed {
		next := d.evalQueue[0]
		n := copy(d.evalQueue, d.evalQueue[1:])
		d.evalQueue[n] = blended{}
		d.evalQueue = d.evalQueue[:n]
		d.evalMu.Unlock()
		if d.onScore != nil {
			d.onScore(next.ticket, next.cur.Params)
		}
		d.score(next.cur.Params)
		d.unhold(next.cur)
		d.evalMu.Lock()
		d.scored = next.ticket
		d.evalDepth.Set(float64(d.tickets - d.scored))
		d.evalCond.Broadcast()
	}
	for _, b := range d.evalQueue { // what a closed job left unscored is dropped
		d.unhold(b.cur)
	}
	clear(d.evalQueue)
	d.evalQueue = d.evalQueue[:0]
	d.evaluating = false
	d.evalMu.Unlock()
}

// score grades one blended copy and does everything that hangs off a
// score: the Trainer validates it and keeps the epoch's books; a closed
// epoch is checkpointed and followed by the next one, or by Done when
// training stopped.
func (d *Distributed) score(cur []float64) {
	out, err := d.trainer.ScoreAndRecord(cur)
	if err != nil {
		d.finish(err)
		return
	}
	if !out.Closed {
		return
	}
	epoch := out.Epoch.Epoch
	d.mu.Lock()
	d.result.closeEpoch(out, time.Since(d.start).Hours())
	d.mu.Unlock()

	// Durable snapshot at every epoch close: the coherent (epoch,
	// params) pair failover and restart recovery roll back to.
	if d.checkpoint {
		if err := d.group.SaveCheckpoint(epoch, out.Params); err == nil {
			d.mu.Lock()
			if epoch > d.ckptEpoch {
				d.ckptEpoch = epoch
			}
			d.mu.Unlock()
			if d.obsSaves != nil {
				d.obsSaves.Inc()
			}
			if d.obsCkptEp != nil {
				d.obsCkptEp.Set(float64(epoch))
			}
		}
	}

	if out.Stop {
		d.finish(nil)
		return
	}
	if err := d.generateEpoch(epoch + 1); err != nil {
		d.finish(err)
	}
}

// finish ends the job once — with nil when training stopped, with the
// first unrecoverable error otherwise — and releases everyone waiting on
// it: Done, the evaluator, and uploads held at the queue.
func (d *Distributed) finish(err error) {
	d.evalMu.Lock()
	defer d.evalMu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.mu.Lock()
	d.failed = err
	d.mu.Unlock()
	// Done first: an upload released by the broadcast is acked by a job
	// that already reads as finished.
	close(d.done)
	d.evalCond.Broadcast()
}
