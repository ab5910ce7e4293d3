package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"vcdl/internal/core"
	"vcdl/internal/live"
)

// serve puts h on a loopback listener with a free port.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("bench: listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close(); dropIdleConns() }, nil
}

// dropIdleConns closes the keep-alive connections boinc.Client leaves in
// the default transport, so repeated set-ups do not pile up sockets to
// servers that are gone.
func dropIdleConns() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// project is a running training project server.
type project struct {
	D    *core.Distributed
	URL  string
	stop func()
}

// startProject boots the server half of a training job. Untraced it is
// exactly live.StartServer, the path vcdl-server runs. Traced it builds
// the same core.Distributed and serves it behind traceHandler, because
// live.StartServer offers no place to put a middleware.
func startProject(cfg live.ServerConfig, rec *recorder) (*project, error) {
	if rec == nil {
		s, err := live.StartServer("127.0.0.1:0", cfg)
		if err != nil {
			return nil, err
		}
		return &project{D: s.D, URL: s.URL(), stop: func() { s.Close(); dropIdleConns() }}, nil
	}
	d, err := core.NewDistributedJob(cfg.Job, cfg.Spec, cfg.Corpus, cfg.PServers, cfg.Store, core.DistOptions{})
	if err != nil {
		return nil, err
	}
	url, stop, err := serve(traceHandler(rec, d.Server()))
	if err != nil {
		return nil, err
	}
	return &project{D: d, URL: url, stop: stop}, nil
}

// clientURL is the server URL a client with this id uses: tagged with
// the actor prefix when the run is traced.
func clientURL(base, id string, rec *recorder) string {
	if rec == nil {
		return base
	}
	return base + actorPrefix + id
}

// timeSetups runs build n times, tearing down all but the last result,
// and files each build's duration in seconds under out. The timed region
// of a workload then runs on the last build. Each repetition starts from
// a collected heap, so none pays for the garbage of the one before.
func timeSetups(out *pass, n int, build func() error, teardown func()) error {
	for i := 0; i < max(n, 1); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return nil
}
