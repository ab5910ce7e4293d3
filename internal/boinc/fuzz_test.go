package boinc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// The fuzz targets take what the other side of the volunteer boundary
// sends: the Retry-After header a server advises a client with, and the
// WorkRequest body a client posts to /scheduler.

// FuzzParseRetryAfter: whatever the header holds, the advised backoff is
// never negative, an unparseable header reads as none, and a number of
// seconds reads as that many, to the nanosecond, when a Duration can
// hold it.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{
		"", "0", "1", "0.25", "2.5e-3", "120", "-1", "-0", "abc", " 1",
		"1e9", "9.2e9", "9.3e9", "1e300", "Inf", "+Inf", "-Inf", "NaN",
		"0x1p-2", "1_000", strconv.FormatFloat((1500 * time.Millisecond).Seconds(), 'g', -1, 64),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		resp := &http.Response{Header: http.Header{}}
		resp.Header.Set("Retry-After", v)
		got := parseRetryAfter(resp)
		if got < 0 {
			t.Fatalf("Retry-After %q read as %v: a negative backoff", v, got)
		}
		secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
		switch {
		case err != nil || !(secs >= 0) || secs*float64(time.Second) >= 1<<63:
			if got != 0 {
				t.Fatalf("Retry-After %q read as %v, want none", v, got)
			}
		case got != time.Duration(secs*float64(time.Second)):
			t.Fatalf("Retry-After %q read as %v, want %v s", v, got, secs)
		}
	})
}

// FuzzWorkRequest posts the fuzzed body to /scheduler on a server with a
// few workunits. Whatever it is, the handler answers 400 exactly when the
// body is not a WorkRequest naming a client, and 200 otherwise, with a
// WorkReply of at most max_tasks distinct assignments.
func FuzzWorkRequest(f *testing.F) {
	for _, seed := range []string{
		`{"client_id":"c1","max_tasks":1}`,
		`{"client_id":"c1","max_tasks":3,"cached_files":["model","shard_000"]}`,
		`{"client_id":"c1","max_tasks":-5}`,
		`{"client_id":"c1","max_tasks":9223372036854775807}`,
		`{"client_id":"c1","max_tasks":1e400}`,
		`{"client_id":"","max_tasks":1}`,
		`{"max_tasks":1}`,
		`{"client_id":"c1","max_tasks":2,"blob_hits":3,"blob_misses":-1,"blob_hit_bytes":-9}`,
		`{"client_id":7}`,
		`{"client_id":"c1"`,
		`null`,
		`[]`,
		``,
		`{"client_id":"c1","max_tasks":1}{"client_id":"c2"}`,
	} {
		f.Add([]byte(seed))
	}
	const workunits = 4
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer(DefaultSchedulerConfig(), nil, nil)
		for i := range workunits {
			srv.AddWorkunit(Workunit{Name: "wu-" + strconv.Itoa(i), InputFiles: []string{"model"}})
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/scheduler", bytes.NewReader(body)))

		var req WorkRequest
		valid := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.ClientID != ""
		switch {
		case !valid && w.Code != http.StatusBadRequest:
			t.Fatalf("body %q answered %d, want 400", body, w.Code)
		case !valid:
			return
		case w.Code != http.StatusOK:
			t.Fatalf("request %+v answered %d: %s", req, w.Code, w.Body)
		}
		var reply WorkReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("request %+v: reply is not a WorkReply: %v", req, err)
		}
		if n := len(reply.Assignments); n > max(req.MaxTasks, 0) || n > workunits {
			t.Fatalf("request %+v got %d assignments", req, n)
		}
		seen := map[int64]bool{}
		for _, a := range reply.Assignments {
			if seen[a.ResultID] {
				t.Fatalf("request %+v got result %d twice", req, a.ResultID)
			}
			seen[a.ResultID] = true
		}
	})
}
