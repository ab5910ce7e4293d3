package scenario

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/ops"
)

// The scenario file format is a small line-oriented language designed to
// be written by hand (no external parser dependencies):
//
//	# comment                       (blank lines ignored; '#' to EOL)
//	scenario preemption-storm
//	description What this scenario tests.
//
//	fleet:
//	  workload quick                # quick (default) | paper
//	  pservers 2
//	  clients 4                     # round-robin Table-I client types
//	  clients 4 clientB             # ... or all one type
//	  tasks 2                       # simultaneous subtasks per client
//	  epochs 4
//	  subtasks 10
//	  seed 7
//	  timeout 20m
//	  regions us-east us-west
//	  sticky off
//	  procs on                      # real mode: clients as OS processes
//	  blobs on                      # real mode: content-addressed data plane
//	  checkpoints on                # real mode: durable PS checkpoints
//	  store strong                  # real mode: eventual (default) | strong
//	  autoscale on 8
//	  target-accuracy 0.8
//	  policy fifo                   # scheduling policy (boinc.PolicyNames)
//	  policy random 7               # ... with arguments
//	  compute cached                # compute backend (core.BackendNames)
//	  compute cached 8              # ... with a worker-pool size
//	  replicate 2                   # issue 2 copies of every subtask
//	  byzantine 2 wrong-result      # first 2 clients are adversarial
//	                                # (wrong-result | spoof | deadline-game)
//
//	events:
//	  at 10m  preempt 0.35          # storm start (p per subtask)
//	  at 50m  preempt 0             # storm end
//	  at 5m   join 2 clientB us-west
//	  at 40m  leave 2               # most recent joiners depart first
//	  at 42m  detach 1              # graceful departure (real mode only)
//	  at 50m  rejoin 1              # revive departed client, warm blob cache
//	  at 12m  blob-kill 8000        # sever blob transfers after 8000 bytes
//	  at 25m  blob-kill off         # ... and disarm (both real mode only)
//	  at 20m  outage us-west 5s     # region RTT spikes to 5 s
//	  at 45m  recover us-west
//	  at 5m   slow 0 4.0            # straggler: client #0 runs 4x slower
//	  at 15m  ps-fail 1             # parameter-server failover
//	  at 30m  ps-recover 1
//	  at 15m  set timeout 10m       # scheduler hot reconfiguration
//	  at 15m  set floor 0.8
//	  at 20m  policy random         # hot-swap the scheduling policy
//	  at 10m  cordon client-01-client-8x2.5    # quarantine: no new work
//	  at 30m  uncordon client-01-client-8x2.5  # release the quarantine
//	  at 12m  byzantine client-00-client-8x2.2 spoof  # turn adversarial
//	  at 24m  byzantine client-00-client-8x2.2 off    # honest again
//
//	assert:
//	  final_accuracy >= 0.35
//	  accuracy@1h >= 0.1
//	  epochs == 4
//	  hours <= 12
//	  reissued <= 400
//	  wallclock_seconds <= 120
//	  blob_resumes > 0              # real-mode data-plane/checkpoint metrics
//	  blob_cache_hits > 0
//	  blob_mb <= 64
//	  ckpt_epoch >= 2
//	  ckpt_restores >= 1
//	  invalid_results > 0           # Byzantine damage (both modes)
//	  quorum_retries > 0
//
// Durations accept s/m/h suffixes (bare numbers are seconds). Events
// must be listed in time order.

// parser accumulates state and errors across lines.
type parser struct {
	src     string
	sc      *Scenario
	section string
	errs    []string
}

func (p *parser) errorf(line int, format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf("%s:%d: %s", p.src, line, fmt.Sprintf(format, args...)))
}

// Parse reads a scenario from r; src names the source (for error
// messages). All syntax errors in the file are reported at once.
func Parse(r io.Reader, src string) (*Scenario, error) {
	p := &parser{src: src, sc: &Scenario{}}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		raw := strings.TrimSpace(scanner.Text())
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		// description lines keep their raw text ('#' is not a comment
		// marker there, so "clients #0 and #1" survives).
		if p.section == "" {
			if first := strings.Fields(raw); len(first) > 0 &&
				strings.ToLower(strings.TrimSuffix(first[0], ":")) == "description" {
				p.sc.Description = strings.TrimSpace(raw[len(first[0]):])
				continue
			}
		}
		p.line(lineNo, line)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	if len(p.errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(p.errs, "\n"))
	}
	return p.sc, nil
}

// ParseFile loads and parses one scenario file.
func ParseFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, path)
}

// Load parses and validates a scenario file.
func Load(path string) (*Scenario, error) {
	sc, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func (p *parser) line(n int, line string) {
	fields := strings.Fields(line)
	head := strings.ToLower(strings.TrimSuffix(fields[0], ":"))
	switch head {
	case "fleet", "events", "assert":
		if len(fields) > 1 {
			p.errorf(n, "section header %q takes no arguments", head)
		}
		p.section = head
		return
	}
	switch p.section {
	case "":
		p.header(n, head, fields)
	case "fleet":
		p.fleetLine(n, head, fields)
	case "events":
		p.eventLine(n, fields)
	case "assert":
		p.assertLine(n, line, fields)
	}
}

func (p *parser) header(n int, head string, fields []string) {
	switch head {
	case "scenario":
		if len(fields) != 2 {
			p.errorf(n, "want 'scenario <name>'")
			return
		}
		p.sc.Name = fields[1]
	default:
		p.errorf(n, "unknown directive %q before any section (want scenario/description/fleet/events/assert)", fields[0])
	}
}

func (p *parser) fleetLine(n int, key string, fields []string) {
	args := fields[1:]
	f := &p.sc.Fleet
	switch key {
	case "workload":
		if len(args) != 1 {
			p.errorf(n, "want 'workload quick|paper'")
			return
		}
		f.Workload = strings.ToLower(args[0])
	case "pservers":
		f.PServers = p.intArg(n, key, args)
	case "clients":
		if len(args) < 1 || len(args) > 2 {
			p.errorf(n, "want 'clients <n> [type]'")
			return
		}
		f.Clients = p.intArg(n, key, args[:1])
		if len(args) == 2 {
			if _, ok := cloud.InstanceByName(args[1]); !ok {
				p.errorf(n, "unknown client type %q", args[1])
			}
			f.ClientType = args[1]
		}
	case "tasks":
		f.Tasks = p.intArg(n, key, args)
	case "epochs":
		f.Epochs = p.intArg(n, key, args)
	case "subtasks":
		f.Subtasks = p.intArg(n, key, args)
	case "seed":
		f.Seed = int64(p.intArg(n, key, args))
	case "timeout":
		f.TimeoutSeconds = p.durArg(n, key, args)
	case "regions":
		if len(args) == 0 {
			p.errorf(n, "want 'regions <region>...'")
			return
		}
		for _, a := range args {
			r, ok := regionByName(a)
			if !ok {
				p.errorf(n, "unknown region %q (want one of %v)", a, cloud.Regions())
				continue
			}
			f.Regions = append(f.Regions, r)
		}
	case "sticky":
		v, ok := p.onOff(n, key, args)
		if ok {
			f.StickyOff = !v
		}
	case "procs":
		v, ok := p.onOff(n, key, args)
		if ok {
			f.Procs = v
		}
	case "blobs":
		v, ok := p.onOff(n, key, args)
		if ok {
			f.Blobs = v
		}
	case "checkpoints":
		v, ok := p.onOff(n, key, args)
		if ok {
			f.Checkpoint = v
		}
	case "store":
		if len(args) != 1 {
			p.errorf(n, "want 'store eventual|strong'")
			return
		}
		switch strings.ToLower(args[0]) {
		case "eventual", "strong":
			f.StoreKind = strings.ToLower(args[0])
		default:
			p.errorf(n, "unknown store %q (want eventual or strong)", args[0])
		}
	case "autoscale":
		if len(args) < 1 || len(args) > 2 {
			p.errorf(n, "want 'autoscale on|off [max]'")
			return
		}
		v, ok := p.onOff(n, key, args[:1])
		if ok {
			f.AutoScale = v
		}
		if len(args) == 2 {
			f.MaxPServers = p.intArg(n, key, args[1:])
		}
	case "target-accuracy":
		f.TargetAccuracy = p.floatArg(n, key, args)
	case "policy":
		if len(args) < 1 {
			p.errorf(n, "want 'policy <name> [args...]'")
			return
		}
		if _, err := boinc.NewPolicy(args[0], args[1:]...); err != nil {
			p.errorf(n, "%v", err)
			return
		}
		f.Policy = args
	case "compute":
		if len(args) < 1 || len(args) > 2 {
			p.errorf(n, "want 'compute <backend> [workers]'")
			return
		}
		if err := core.ValidateBackendSpec(args[0]); err != nil {
			p.errorf(n, "%v", err)
			return
		}
		f.Compute = args[0]
		if len(args) == 2 {
			f.ComputeWorkers = p.intArg(n, key, args[1:])
		}
	case "replicate":
		before := len(p.errs)
		v := p.intArg(n, key, args)
		if len(p.errs) > before {
			return // intArg already reported
		}
		if v < 1 {
			p.errorf(n, "bad replicate value %d (want >= 1)", v)
			return
		}
		f.Replication = v
	case "shards":
		before := len(p.errs)
		v := p.intArg(n, key, args)
		if len(p.errs) > before {
			return
		}
		if v < 1 {
			p.errorf(n, "bad shards value %d (want >= 1)", v)
			return
		}
		f.Shards = v
	case "admission":
		if len(args) != 2 {
			p.errorf(n, "want 'admission <max-concurrent> <max-queue>'")
			return
		}
		mc, err1 := strconv.Atoi(args[0])
		mq, err2 := strconv.Atoi(args[1])
		if err1 != nil || mc < 1 {
			p.errorf(n, "bad admission max-concurrent %q (want >= 1)", args[0])
			return
		}
		if err2 != nil || mq < 0 {
			p.errorf(n, "bad admission max-queue %q (want >= 0)", args[1])
			return
		}
		f.AdmitMax, f.AdmitQueue = mc, mq
	case "byzantine":
		if len(args) != 2 {
			p.errorf(n, "want 'byzantine <n> <behavior>' (behaviors: %v)", boinc.ByzantineBehaviors)
			return
		}
		cnt, err := strconv.Atoi(args[0])
		if err != nil || cnt < 1 {
			p.errorf(n, "bad byzantine count %q", args[0])
			return
		}
		behavior := strings.ToLower(args[1])
		if !boinc.ValidByzantine(behavior) {
			p.errorf(n, "unknown byzantine behavior %q (want one of %v)", args[1], boinc.ByzantineBehaviors)
			return
		}
		f.ByzantineCount = cnt
		f.Byzantine = behavior
	default:
		p.errorf(n, "unknown fleet key %q", key)
	}
}

func (p *parser) eventLine(n int, fields []string) {
	if strings.ToLower(fields[0]) != "at" || len(fields) < 3 {
		p.errorf(n, "want 'at <time> <event> ...'")
		return
	}
	at, err := parseDuration(fields[1])
	if err != nil {
		p.errorf(n, "bad event time %q: %v", fields[1], err)
		return
	}
	verb := strings.ToLower(fields[2])
	args := fields[3:]
	bad := func(usage string) {
		p.errorf(n, "want 'at <time> %s'", usage)
	}
	switch verb {
	case "join":
		// join <n> <type|mixed> [region]
		if len(args) < 2 || len(args) > 3 {
			bad("join <n> <type|mixed> [region]")
			return
		}
		cnt, err := strconv.Atoi(args[0])
		if err != nil || cnt < 1 {
			p.errorf(n, "bad join count %q", args[0])
			return
		}
		ev := joinEvent{at: at, n: cnt, region: cloud.USEast}
		if strings.EqualFold(args[1], "mixed") {
			ev.mixed = true
		} else {
			it, ok := cloud.InstanceByName(args[1])
			if !ok {
				p.errorf(n, "unknown client type %q", args[1])
				return
			}
			ev.inst = it
		}
		if len(args) == 3 {
			r, ok := regionByName(args[2])
			if !ok {
				p.errorf(n, "unknown region %q", args[2])
				return
			}
			ev.region = r
		}
		p.sc.Events = append(p.sc.Events, ev)
	case "leave", "detach", "rejoin":
		if len(args) != 1 {
			bad(verb + " <n|client-id>")
			return
		}
		if cnt, err := strconv.Atoi(args[0]); err == nil {
			if cnt < 1 {
				p.errorf(n, "bad %s count %q", verb, args[0])
				return
			}
			p.sc.Events = append(p.sc.Events, memberEvent{at: at, verb: verb, n: cnt})
			return
		}
		p.sc.Events = append(p.sc.Events, memberEvent{at: at, verb: verb, id: args[0]})
	case "blob-kill":
		if len(args) != 1 {
			bad("blob-kill <bytes|off>")
			return
		}
		if strings.EqualFold(args[0], "off") {
			p.sc.Events = append(p.sc.Events, blobKillEvent{at: at})
			return
		}
		bytes, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil || bytes < 1 {
			p.errorf(n, "bad blob-kill byte count %q (want a positive count or off)", args[0])
			return
		}
		p.sc.Events = append(p.sc.Events, blobKillEvent{at: at, bytes: bytes})
	case "preempt":
		if len(args) != 1 {
			bad("preempt <p>")
			return
		}
		pr, err := strconv.ParseFloat(args[0], 64)
		if strings.EqualFold(args[0], "off") {
			pr, err = 0, nil
		}
		if err != nil || pr < 0 || pr > 1 {
			p.errorf(n, "bad preempt probability %q (want 0..1)", args[0])
			return
		}
		p.sc.Events = append(p.sc.Events, preemptEvent{at: at, p: pr})
	case "outage":
		if len(args) < 1 || len(args) > 2 {
			bad("outage <region> [rtt]")
			return
		}
		r, ok := regionByName(args[0])
		if !ok {
			p.errorf(n, "unknown region %q", args[0])
			return
		}
		rtt := 5.0
		if len(args) == 2 {
			rtt, err = parseDuration(args[1])
			if err != nil || rtt <= 0 {
				p.errorf(n, "bad outage RTT %q", args[1])
				return
			}
		}
		p.sc.Events = append(p.sc.Events, outageEvent{at: at, region: r, rtt: rtt})
	case "recover":
		if len(args) != 1 {
			bad("recover <region>")
			return
		}
		r, ok := regionByName(args[0])
		if !ok {
			p.errorf(n, "unknown region %q", args[0])
			return
		}
		p.sc.Events = append(p.sc.Events, recoverEvent{at: at, region: r})
	case "slow":
		if len(args) != 2 {
			bad("slow <client#|client-id> <factor>")
			return
		}
		factor, err := strconv.ParseFloat(args[1], 64)
		if err != nil || factor <= 0 {
			p.errorf(n, "bad slowdown factor %q", args[1])
			return
		}
		if idx, err := strconv.Atoi(args[0]); err == nil {
			if idx < 0 {
				p.errorf(n, "bad slow client index %q", args[0])
				return
			}
			p.sc.Events = append(p.sc.Events, slowEvent{at: at, index: idx, factor: factor})
			return
		}
		p.sc.Events = append(p.sc.Events, slowEvent{at: at, id: args[0], factor: factor})
	case "ps-fail", "ps-recover":
		cnt := 1
		if len(args) > 1 {
			bad(verb + " [n]")
			return
		}
		if len(args) == 1 {
			var err error
			cnt, err = strconv.Atoi(args[0])
			if err != nil || cnt < 1 {
				p.errorf(n, "bad %s count %q", verb, args[0])
				return
			}
		}
		if verb == "ps-fail" {
			cnt = -cnt
		}
		p.sc.Events = append(p.sc.Events, psEvent{at: at, delta: cnt})
	case "policy":
		if len(args) < 1 {
			bad("policy <name> [args...]")
			return
		}
		if _, err := boinc.NewPolicy(args[0], args[1:]...); err != nil {
			p.errorf(n, "%v", err)
			return
		}
		p.sc.Events = append(p.sc.Events, policyEvent{at: at, name: args[0], args: args[1:]})
	case "set":
		if len(args) != 2 {
			bad("set timeout|floor <value>")
			return
		}
		key := strings.ToLower(args[0])
		switch key {
		case "timeout":
			v, err := parseDuration(args[1])
			if err != nil || v <= 0 {
				p.errorf(n, "bad timeout %q", args[1])
				return
			}
			p.sc.Events = append(p.sc.Events, setEvent{at: at, key: key, value: v})
		case "floor":
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || v < 0 || v > 1 {
				p.errorf(n, "bad reliability floor %q (want 0..1)", args[1])
				return
			}
			p.sc.Events = append(p.sc.Events, setEvent{at: at, key: key, value: v})
		default:
			p.errorf(n, "unknown set key %q (want timeout or floor)", args[0])
		}
	case "cordon", "uncordon":
		if len(args) != 1 {
			bad(verb + " <client-id>")
			return
		}
		p.sc.Events = append(p.sc.Events, cordonEvent{at: at, id: args[0], on: verb == "cordon"})
	case "byzantine":
		if len(args) != 2 {
			bad("byzantine <client-id> <behavior|off>")
			return
		}
		behavior := strings.ToLower(args[1])
		if _, ok := ops.NormalizeByzantine(behavior); !ok {
			p.errorf(n, "unknown byzantine behavior %q (want one of %v, or off)", args[1], boinc.ByzantineBehaviors)
			return
		}
		p.sc.Events = append(p.sc.Events, byzantineEvent{at: at, id: args[0], behavior: behavior})
	default:
		p.errorf(n, "unknown event %q (want join/leave/detach/rejoin/cordon/uncordon/byzantine/preempt/outage/recover/slow/ps-fail/ps-recover/blob-kill/policy/set)", fields[2])
	}
}

func (p *parser) assertLine(n int, line string, fields []string) {
	if len(fields) != 3 {
		p.errorf(n, "want '<metric> <op> <value>', got %q", line)
		return
	}
	a := Assertion{Op: fields[1], Raw: line}
	val, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		p.errorf(n, "bad assertion value %q", fields[2])
		return
	}
	a.Value = val
	metric := strings.ToLower(fields[0])
	if arg, ok := strings.CutPrefix(metric, "accuracy@"); ok {
		t, err := parseDuration(arg)
		if err != nil {
			p.errorf(n, "bad accuracy@ time %q: %v", arg, err)
			return
		}
		a.Metric, a.Arg = "accuracy_at", t
	} else if arg, ok := strings.CutPrefix(metric, "hours_to_acc@"); ok {
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			p.errorf(n, "bad hours_to_acc@ value %q", arg)
			return
		}
		a.Metric, a.Arg = "hours_to_acc", v
	} else {
		a.Metric = metric
	}
	if err := a.check(); err != nil {
		p.errorf(n, "%v", err)
		return
	}
	p.sc.Asserts = append(p.sc.Asserts, a)
}

// intArg parses a single positive integer argument.
func (p *parser) intArg(n int, key string, args []string) int {
	if len(args) != 1 {
		p.errorf(n, "want '%s <n>'", key)
		return 0
	}
	v, err := strconv.Atoi(args[0])
	if err != nil || v < 0 {
		p.errorf(n, "bad %s value %q", key, args[0])
		return 0
	}
	return v
}

func (p *parser) floatArg(n int, key string, args []string) float64 {
	if len(args) != 1 {
		p.errorf(n, "want '%s <value>'", key)
		return 0
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil || v < 0 {
		p.errorf(n, "bad %s value %q", key, args[0])
		return 0
	}
	return v
}

func (p *parser) durArg(n int, key string, args []string) float64 {
	if len(args) != 1 {
		p.errorf(n, "want '%s <duration>'", key)
		return 0
	}
	v, err := parseDuration(args[0])
	if err != nil {
		p.errorf(n, "bad %s duration %q: %v", key, args[0], err)
		return 0
	}
	return v
}

func (p *parser) onOff(n int, key string, args []string) (value, ok bool) {
	if len(args) != 1 {
		p.errorf(n, "want '%s on|off'", key)
		return false, false
	}
	switch strings.ToLower(args[0]) {
	case "on", "true", "yes":
		return true, true
	case "off", "false", "no":
		return false, true
	}
	p.errorf(n, "bad %s value %q (want on or off)", key, args[0])
	return false, false
}

// parseDuration converts "90s", "15m", "1.5h" or a bare number of
// seconds into seconds.
func parseDuration(s string) (float64, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "h"):
		mult, num = 3600, strings.TrimSuffix(s, "h")
	case strings.HasSuffix(s, "m"):
		mult, num = 60, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "s"):
		num = strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("not a duration (want e.g. 90s, 15m, 1.5h)")
	}
	if v < 0 {
		return 0, fmt.Errorf("negative duration")
	}
	return v * mult, nil
}
