package blob

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

func TestDigestAndValidate(t *testing.T) {
	d := Digest([]byte("hello"))
	if len(d) != 64 || !ValidDigest(d) {
		t.Fatalf("Digest returned %q, want 64-char hex", d)
	}
	if Digest([]byte("hello")) != d {
		t.Fatal("Digest not deterministic")
	}
	for _, bad := range []string{"", "abc", d[:63], d + "0", "../../etc/passwd",
		"ABCDEF" + d[6:], "zz" + d[2:]} {
		if ValidDigest(bad) {
			t.Errorf("ValidDigest(%q) = true, want false", bad)
		}
	}
}

func TestStoreRoundtrip(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"mem": NewMemStore(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			data := testPayload(4096)
			d, err := st.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			if d != Digest(data) {
				t.Fatalf("Put digest %s != computed %s", d, Digest(data))
			}
			// Immutable: re-Put is a no-op with the same address.
			if d2, _ := st.Put(data); d2 != d {
				t.Fatalf("re-Put digest %s != %s", d2, d)
			}
			got, err := st.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("Get returned different bytes")
			}
			if !st.Has(d) {
				t.Fatal("Has = false for stored blob")
			}
			if sz, ok := st.Size(d); !ok || sz != int64(len(data)) {
				t.Fatalf("Size = %d,%v want %d,true", sz, ok, len(data))
			}
			missing := Digest([]byte("missing"))
			if _, err := st.Get(missing); err == nil {
				t.Fatal("Get of missing digest succeeded")
			}
			if st.Has(missing) {
				t.Fatal("Has = true for missing digest")
			}
			ds := st.Digests()
			if len(ds) != 1 || ds[0] != d {
				t.Fatalf("Digests = %v, want [%s]", ds, d)
			}
		})
	}
}

func TestDiskStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(1024)
	d, err := st.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the stored file behind the store's back.
	path := filepath.Join(dir, d[:2], d)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(d); err == nil {
		t.Fatal("Get returned corrupted bytes without error")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	st := NewMemStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := testPayload(512 + i)
			d, err := st.Put(data)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				got, err := st.Get(d)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent Get mismatch: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(st.Digests()) != 16 {
		t.Fatalf("Digests = %d, want 16", len(st.Digests()))
	}
}

func newTestServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("GET /blob/{digest}", svc)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchRoundtrip(t *testing.T) {
	svc := NewService(NewMemStore(), 4)
	data := testPayload(10_000)
	d, _ := svc.Store().Put(data)
	ts := newTestServer(t, svc)

	f := NewFetcher(ts.URL, nil)
	got, err := f.Fetch(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes differ")
	}
	st := f.Stats()
	if st.Fetched != 1 || st.Resumes != 0 || st.CacheMisses != 1 {
		t.Fatalf("stats after cold fetch: %+v", st)
	}
	// Second fetch is a warm-cache hit: no network traffic.
	before := f.Stats().BytesFetched
	got2, err := f.Fetch(context.Background(), d)
	if err != nil || !bytes.Equal(got2, data) {
		t.Fatalf("warm fetch: %v", err)
	}
	st = f.Stats()
	if st.CacheHits != 1 || st.BytesFetched != before {
		t.Fatalf("warm fetch hit the network: %+v", st)
	}
	if _, err := f.Fetch(context.Background(), Digest([]byte("nope"))); err == nil {
		t.Fatal("fetch of missing blob succeeded")
	}
}

// TestFetchKillResume is the core data-plane contract: the server
// severs every transfer after killAfter bytes, and the client must
// reassemble the exact blob through Range resumes — never a full
// re-download.
func TestFetchKillResume(t *testing.T) {
	svc := NewService(NewMemStore(), 4)
	data := testPayload(50_000)
	d, _ := svc.Store().Put(data)
	svc.SetKillAfter(8_000) // each attempt moves at most 8000 bytes
	ts := newTestServer(t, svc)

	f := NewFetcher(ts.URL, nil)
	got, err := f.Fetch(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes are not byte-identical to the original")
	}
	st := f.Stats()
	// 50_000 / 8_000 → at least 6 resumed attempts after the first.
	if st.Resumes < 6 {
		t.Fatalf("Resumes = %d, want >= 6", st.Resumes)
	}
	if svc.Resumes() < 6 {
		t.Fatalf("server-side Resumes = %d, want >= 6", svc.Resumes())
	}
	// Resume (not re-download): total network bytes ≈ blob size, far
	// below resumes × size which a naive full-restart client would pay.
	if st.BytesFetched >= int64(2*len(data)) {
		t.Fatalf("BytesFetched = %d — looks like full re-downloads, not resumes", st.BytesFetched)
	}
	// Disarm and fetch a second blob cleanly.
	svc.SetKillAfter(0)
	data2 := testPayload(3_000)
	d2, _ := svc.Store().Put(data2)
	if got2, err := f.Fetch(context.Background(), d2); err != nil || !bytes.Equal(got2, data2) {
		t.Fatalf("post-disarm fetch: %v", err)
	}
}

func TestFetchGivesUp(t *testing.T) {
	svc := NewService(NewMemStore(), 4)
	data := testPayload(50_000)
	d, _ := svc.Store().Put(data)
	svc.SetKillAfter(100)
	ts := newTestServer(t, svc)

	f := NewFetcher(ts.URL, nil)
	f.MaxAttempts = 3
	f.RetryWait = time.Millisecond
	if _, err := f.Fetch(context.Background(), d); err == nil {
		t.Fatal("fetch succeeded despite attempt budget far below kills needed")
	}
}

func TestServiceRangeRequests(t *testing.T) {
	svc := NewService(NewMemStore(), 4)
	data := testPayload(1000)
	d, _ := svc.Store().Put(data)
	ts := newTestServer(t, svc)

	get := func(rng string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/blob/"+d, nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := get("")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("full GET: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("X-Blob-Digest") != d {
		t.Fatal("missing X-Blob-Digest")
	}

	resp, body = get("bytes=400-")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[400:]) {
		t.Fatalf("open range: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if cr := resp.Header.Get("Content-Range"); cr != "bytes 400-999/1000" {
		t.Fatalf("Content-Range = %q", cr)
	}

	resp, body = get("bytes=100-199")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[100:200]) {
		t.Fatalf("bounded range: status %d, %d bytes", resp.StatusCode, len(body))
	}

	resp, _ = get("bytes=5000-")
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-range: status %d, want 416", resp.StatusCode)
	}

	// Malformed digest and missing blob.
	if r, err := http.Get(ts.URL + "/blob/nothex"); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound && r.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed digest: status %d", r.StatusCode)
		}
	}
	if r, err := http.Get(ts.URL + "/blob/" + Digest([]byte("absent"))); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("missing blob: status %d", r.StatusCode)
		}
	}
}

func TestServiceBackpressure(t *testing.T) {
	svc := NewService(NewMemStore(), 1)
	svc.acquireWait = 50 * time.Millisecond
	data := testPayload(100)
	d, _ := svc.Store().Put(data)

	// Occupy the single transfer slot.
	svc.sem <- struct{}{}
	defer func() { <-svc.sem }()

	ts := newTestServer(t, svc)
	resp, err := http.Get(ts.URL + "/blob/" + d)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 under exhausted slots", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestDiskCacheWarmAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(2048)
	d := Digest(data)
	c1.Put(data)

	// A "restarted" client reopens the same directory and hits warm.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Get(d); !bytes.Equal(got, data) {
		t.Fatal("reopened cache missed previously stored blob")
	}
	hits, misses, hitBytes := c2.Stats()
	if hits != 1 || misses != 0 || hitBytes != int64(len(data)) {
		t.Fatalf("stats = %d/%d/%d", hits, misses, hitBytes)
	}
}

func TestReportDelta(t *testing.T) {
	svc := NewService(NewMemStore(), 4)
	data := testPayload(500)
	d, _ := svc.Store().Put(data)
	ts := newTestServer(t, svc)

	f := NewFetcher(ts.URL, nil)
	if _, err := f.Fetch(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	d1 := f.ReportDelta()
	if d1.Fetched != 1 || d1.CacheMisses != 1 {
		t.Fatalf("first delta: %+v", d1)
	}
	if _, err := f.Fetch(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	d2 := f.ReportDelta()
	if d2.Fetched != 0 || d2.CacheHits != 1 || d2.CacheMisses != 0 {
		t.Fatalf("second delta: %+v", d2)
	}
	d3 := f.ReportDelta()
	if d3 != (FetchStats{}) {
		t.Fatalf("idle delta non-zero: %+v", d3)
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h          string
		size       int64
		start, end int64
		ok         bool
	}{
		{"", 100, 0, 99, true},
		{"bytes=0-", 100, 0, 99, true},
		{"bytes=50-", 100, 50, 99, true},
		{"bytes=10-19", 100, 10, 19, true},
		{"bytes=10-500", 100, 10, 99, true},
		{"bytes=100-", 100, 0, 0, false},
		{"bytes=-50", 100, 0, 0, false},
		{"bytes=5-3", 100, 0, 0, false},
		{"bytes=0-10,20-30", 100, 0, 0, false},
		{"items=0-", 100, 0, 0, false},
		{"garbage", 100, 0, 0, false},
	}
	for _, c := range cases {
		start, end, ok := parseRange(c.h, c.size)
		if ok != c.ok || (ok && (start != c.start || end != c.end)) {
			t.Errorf("parseRange(%q,%d) = %d,%d,%v want %d,%d,%v",
				c.h, c.size, start, end, ok, c.start, c.end, c.ok)
		}
	}
}

// FuzzParseRange feeds parseRange the Range header a volunteer sends.
// Whatever it is, parseRange must not panic, and a range it accepts must
// lie inside the blob: 0 <= start <= end < size. The one exception is
// the empty header on an empty blob, which accepts the whole (empty)
// blob as 0..-1, and ServeHTTP sends zero bytes for it.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct {
		h    string
		size int64
	}{
		{"", 0},
		{"", 100},
		{"bytes=0-", 100},
		{"bytes=50-", 100},
		{"bytes=10-19", 100},
		{"bytes=10-500", 100},
		{"bytes=0-10,20-30", 100},
		{"bytes=-50", 100},
		{"bytes=-5--3", 100},
		{"bytes=5-3", 100},
		{"bytes=99999999999999999999-", 100},
		{"bytes=0-99999999999999999999", 100},
		{"bytes=0-9223372036854775807", math.MaxInt64},
		{"bytes=100-", 100},
		{"bytes=0-", 0},
	} {
		f.Add(seed.h, seed.size)
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			t.Skip("a blob's size is a length")
		}
		start, end, ok := parseRange(h, size)
		switch {
		case !ok:
		case h == "" && size == 0:
			if start != 0 || end != -1 {
				t.Fatalf("parseRange(%q, 0) = %d..%d, want the empty whole 0..-1", h, start, end)
			}
		case start < 0 || start > end || end >= size:
			t.Fatalf("parseRange(%q, %d) = %d..%d: outside the blob", h, size, start, end)
		}
	})
}

func TestFetchConcurrent(t *testing.T) {
	svc := NewService(NewMemStore(), 8)
	ts := newTestServer(t, svc)
	f := NewFetcher(ts.URL, nil)

	var digests []string
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		p := testPayload(1000 + i*137)
		d, _ := svc.Store().Put(p)
		digests = append(digests, d)
		payloads = append(payloads, p)
	}
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := f.Fetch(context.Background(), digests[i])
			if err != nil || !bytes.Equal(got, payloads[i]) {
				t.Errorf("concurrent fetch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServiceCorruptBlobIs404(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(256)
	d, _ := st.Put(data)
	path := filepath.Join(dir, d[:2], d)
	if err := os.WriteFile(path, append(data, 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := NewService(st, 2)
	ts := newTestServer(t, svc)
	resp, err := http.Get(fmt.Sprintf("%s/blob/%s", ts.URL, d))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt blob served with status %d", resp.StatusCode)
	}
}
