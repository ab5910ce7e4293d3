package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around its calls into the program (nothing
// inside the program is instrumented). Actor names the serial thread of
// work the span belongs to — a client id, or "sim" for the event loop —
// and Ref is the identifier the spans of one request share: the result id
// ("r17") once it is known, otherwise the client id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Actor  string `json:"actor"`
	Ref    string `json:"ref"`
	// Start and End are microseconds since the recorder was created.
	Start int64 `json:"start_us"`
	End   int64 `json:"end_us"`
	// Workload stamps the span when several workloads share one file.
	Workload string `json:"workload"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so call sites need no
// branches and the untraced run pays one nil check.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// add records one finished span.
func (r *recorder) add(name, actor, ref string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: name, Actor: actor, Ref: ref, Workload: r.workload,
		Start: start.Sub(r.t0).Microseconds(), End: end.Sub(r.t0).Microseconds(),
	})
	r.mu.Unlock()
}

// finish links every span to the span that caused it and returns them in
// start order. Within one actor work is serial, so the cause of a span is
// the innermost span of the same actor that was open when it started (a
// server handler's cause is the client call that was waiting on it);
// spans nothing was waiting on hang off the workload's root span, which
// must have been added last with actor "".
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	root := 0
	for _, s := range r.spans {
		if s.Actor == "" {
			root = s.ID
		}
	}
	order := make([]int, len(r.spans))
	for i := range order {
		order[i] = i
	}
	// Start order; at equal starts the longer span is the outer one.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := r.spans[order[a]], r.spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	open := map[string][]int{} // actor -> stack of indexes of open spans
	for _, i := range order {
		s := &r.spans[i]
		if s.Actor == "" {
			continue
		}
		st := open[s.Actor]
		for len(st) > 0 && r.spans[st[len(st)-1]].End <= s.Start {
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			s.Parent = r.spans[st[len(st)-1]].ID
		} else {
			s.Parent = root
		}
		open[s.Actor] = append(st, i)
	}
	out := make([]span, len(order))
	for k, i := range order {
		out[k] = r.spans[i]
	}
	return out
}

// spanStats summarises a finished trace by span name: every duration, and
// the self time — a span's duration minus the part of it its child spans
// cover — which is what a layer spent itself rather than waiting on the
// layer below.
type spanStats struct {
	durMs  map[string][]float64 // per-span durations, milliseconds
	selfMs map[string][]float64 // per-span self times, milliseconds
}

func summarise(spans []span) spanStats {
	st := spanStats{durMs: map[string][]float64{}, selfMs: map[string][]float64{}}
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		at := s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st.durMs[s.Name] = append(st.durMs[s.Name], float64(s.End-s.Start)/1e3)
		st.selfMs[s.Name] = append(st.selfMs[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return st
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// actorPrefix marks the URL path element the traced clients put in front
// of every request ("http://host/~c1" as the server URL), so the
// middleware knows which client a request belongs to without reading its
// body. The untraced run uses plain URLs and no middleware.
const actorPrefix = "/~"

// traceHandler records one span per request around next — the
// server-side handler time as seen from outside the program.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, actor, route := next, "", r.URL.Path
		if rest, tagged := strings.CutPrefix(route, actorPrefix); tagged {
			actor, route, _ = strings.Cut(rest, "/")
			h = http.StripPrefix(actorPrefix+actor, next)
		}
		ref := actor
		if id := r.URL.Query().Get("result"); id != "" {
			ref = "r" + id
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add("server."+strings.TrimPrefix(route, "/"), actor, ref, t0, time.Now())
	})
}
