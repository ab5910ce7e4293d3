package boinc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// countedDecoded is a validator product that records its release.
type countedDecoded struct {
	released bool
	total    *atomic.Int32
}

func (d *countedDecoded) Release() {
	d.released = true
	d.total.Add(1)
}

// uploadFixture is a server with one issued result per workunit and a
// validator whose verdict and side effect the test chooses.
type uploadFixture struct {
	srv         *Server
	ts          *httptest.Server
	released    atomic.Int32
	validated   atomic.Int32
	assimilated atomic.Int32
	verdict     bool
	// during runs inside the validator — that is, between the handler's
	// two lock acquisitions.
	during func()
}

func newUploadFixture(t *testing.T, wus ...Workunit) *uploadFixture {
	t.Helper()
	f := &uploadFixture{verdict: true}
	f.srv = NewServer(DefaultSchedulerConfig(), func(wu *Workunit, output []byte) (Decoded, bool) {
		f.validated.Add(1)
		if f.during != nil {
			f.during()
		}
		return &countedDecoded{total: &f.released}, f.verdict
	}, func(wu *Workunit, output []byte, dec Decoded) {
		if d, ok := dec.(*countedDecoded); !ok {
			t.Errorf("assimilator got %T, want the validator's product", dec)
		} else if d.released {
			t.Error("decoded value released before the assimilator ran")
		}
		f.assimilated.Add(1)
	})
	for _, wu := range wus {
		f.srv.AddWorkunit(wu)
	}
	f.ts = httptest.NewServer(f.srv)
	t.Cleanup(f.ts.Close)
	return f
}

// issue hands client id one result and returns its ID.
func (f *uploadFixture) issue(t *testing.T, id string) int64 {
	t.Helper()
	asns, err := NewClient(id, f.ts.URL, 1, nil).RequestWork(1)
	if err != nil || len(asns) != 1 {
		t.Fatalf("RequestWork(%s) = %d assignments, %v", id, len(asns), err)
	}
	return asns[0].ResultID
}

func (f *uploadFixture) post(t *testing.T, query string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(f.ts.URL+"/upload?"+query, "application/octet-stream", body)
	if err != nil {
		t.Error(err) // not Fatal: one caller runs on a handler goroutine
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (f *uploadFixture) counts(t *testing.T, validated, released, assimilated int32) {
	t.Helper()
	if v, r, a := f.validated.Load(), f.released.Load(), f.assimilated.Load(); v != validated || r != released || a != assimilated {
		t.Fatalf("validated/released/assimilated = %d/%d/%d, want %d/%d/%d", v, r, a, validated, released, assimilated)
	}
}

// TestUploadExpiresDuringValidation: a result whose deadline passes
// while its bytes are being validated (no lock held) is answered 410 by
// the completion phase, counts as a timeout and not as invalid, and its
// decoded value is still released.
func TestUploadExpiresDuringValidation(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t"})
	id := f.issue(t, "c1")
	f.during = func() {
		f.srv.Scheduler(func(s *Scheduler) { s.ExpireTimeouts(1e9) })
	}
	if code := f.post(t, "result=1", bytes.NewReader([]byte("late"))); code != http.StatusGone || id != 1 {
		t.Fatalf("status = %d for result %d, want 410", code, id)
	}
	f.counts(t, 1, 1, 0)
	if st := f.srv.SchedStats(); st.Timeouts != 1 || st.Invalid != 0 || st.Completions != 0 {
		t.Fatalf("stats = %+v, want one timeout and nothing else", st)
	}
}

// TestUploadDuplicateDuringValidation: of two uploads for one result
// that both pass validation, exactly one completes it.
func TestUploadDuplicateDuringValidation(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t"})
	f.issue(t, "c1")
	nested := false
	f.during = func() {
		if !nested {
			nested = true
			if code := f.post(t, "result=1", bytes.NewReader([]byte("twin"))); code != http.StatusOK {
				t.Errorf("inner upload: %d, want 200", code)
			}
		}
	}
	if code := f.post(t, "result=1", bytes.NewReader([]byte("twin"))); code != http.StatusGone {
		t.Fatalf("outer upload: %d, want 410", code)
	}
	f.counts(t, 2, 2, 1)
}

// TestUploadUnknownResultWithValidator: the lookup phase answers 404
// before any validation work is done.
func TestUploadUnknownResultWithValidator(t *testing.T) {
	f := newUploadFixture(t)
	if code := f.post(t, "result=42", bytes.NewReader([]byte("x"))); code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
	f.counts(t, 0, 0, 0)
}

// TestUploadRejectedCountedOnce: a rejected upload is one invalid
// result, is never assimilated, and its decoded value is released.
func TestUploadRejectedCountedOnce(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t"})
	f.issue(t, "c1")
	f.verdict = false
	if code := f.post(t, "result=1", bytes.NewReader([]byte("junk"))); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	f.counts(t, 1, 1, 0)
	if st := f.srv.SchedStats(); st.Invalid != 1 {
		t.Fatalf("Invalid = %d, want 1", st.Invalid)
	}
}

// TestUploadFailedSkipsValidator: failed=1 has nothing to validate and
// takes the single-acquisition path.
func TestUploadFailedSkipsValidator(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t"})
	f.issue(t, "c1")
	if code := f.post(t, "result=1&failed=1", bytes.NewReader(nil)); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	f.counts(t, 0, 0, 0)
	if st := f.srv.SchedStats(); st.Invalid != 1 || st.Pending != 1 {
		t.Fatalf("stats = %+v, want one failed result and the workunit back in the queue", st)
	}
}

// TestUploadNonCanonicalReplicaReleased: with quorum 2 the first valid
// replica is not canonical — validated and released, not assimilated —
// and the second is.
func TestUploadNonCanonicalReplicaReleased(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t", Replication: 2, Quorum: 2})
	a, b := f.issue(t, "c1"), f.issue(t, "c2")
	if code := f.post(t, fmt.Sprintf("result=%d", a), bytes.NewReader([]byte("r"))); code != http.StatusOK {
		t.Fatalf("first replica: %d", code)
	}
	f.counts(t, 1, 1, 0)
	if code := f.post(t, fmt.Sprintf("result=%d", b), bytes.NewReader([]byte("r"))); code != http.StatusOK {
		t.Fatalf("second replica: %d", code)
	}
	f.counts(t, 2, 2, 1)
}

// TestUploadTooLarge: a body over the server's limit is refused with
// 413 whether or not it declares its length, and the result stays in
// flight for an honest retry.
func TestUploadTooLarge(t *testing.T) {
	f := newUploadFixture(t, Workunit{Name: "t"})
	f.issue(t, "c1")
	f.srv.SetMaxUpload(64)
	big := bytes.Repeat([]byte("x"), 65)
	if code := f.post(t, "result=1", bytes.NewReader(big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length: %d, want 413", code)
	}
	// io.MultiReader hides the length, so the client sends it chunked.
	if code := f.post(t, "result=1", io.MultiReader(bytes.NewReader(big))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked: %d, want 413", code)
	}
	f.counts(t, 0, 0, 0)
	if code := f.post(t, "result=1", io.MultiReader(bytes.NewReader(big[:64]))); code != http.StatusOK {
		t.Fatalf("chunked body at the limit: %d, want 200", code)
	}
	f.counts(t, 1, 1, 1)
}
