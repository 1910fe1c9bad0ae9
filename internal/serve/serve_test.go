package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynshap"
)

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	sv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sv
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
		}
	}
	return rec.Code, out
}

func createBody(name string, extra map[string]any) map[string]any {
	body := map[string]any{
		"name":              name,
		"synthetic":         map[string]any{"kind": "iris", "total": 60, "seed": 7},
		"model":             "knn",
		"knn_k":             3,
		"samples":           60,
		"update_samples":    30,
		"seed":              5,
		"keep_permutations": true,
		"coalesce_batch":    8,
		"coalesce_delay_ms": 1,
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

func TestCreateAddReadLifecycle(t *testing.T) {
	sv := newTestServer(t, t.TempDir())
	defer sv.Close()

	code, resp := doJSON(t, sv, "POST", "/v1/sessions", createBody("iris", nil))
	if code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	if resp["version"].(float64) != 1 {
		t.Fatalf("create: version %v, want 1", resp["version"])
	}
	n0 := int(resp["n"].(float64))

	// Duplicate names are refused.
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions", createBody("iris", nil)); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", code)
	}

	// Concurrent adds share coalescing windows; every response must carry a
	// valid per-point attribution.
	const adds = 12
	var wg sync.WaitGroup
	errs := make(chan string, adds)
	for i := 0; i < adds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt := map[string]any{"x": []float64{5.1, 3.4, 1.6, 0.3}, "y": i % 3}
			code, resp := doJSON(t, sv, "POST", "/v1/sessions/iris/add", pt)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("add %d: status %d (%v)", i, code, resp)
				return
			}
			if resp["version"].(float64) < 2 || resp["index"].(float64) < float64(n0) {
				errs <- fmt.Sprintf("add %d: bad result %v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	code, resp = doJSON(t, sv, "POST", "/v1/sessions/iris/flush", nil)
	if code != http.StatusOK {
		t.Fatalf("flush: status %d (%v)", code, resp)
	}

	code, resp = doJSON(t, sv, "GET", "/v1/sessions/iris/values", nil)
	if code != http.StatusOK {
		t.Fatalf("values: status %d", code)
	}
	if got := len(resp["values"].([]any)); got != n0+adds {
		t.Fatalf("values: %d entries, want %d", got, n0+adds)
	}

	code, resp = doJSON(t, sv, "POST", "/v1/sessions/iris/remove",
		map[string]any{"indices": []int{n0}})
	if code != http.StatusOK {
		t.Fatalf("remove: status %d (%v)", code, resp)
	}

	code, resp = doJSON(t, sv, "GET", "/v1/sessions/iris/topk?k=3", nil)
	if code != http.StatusOK || len(resp["topk"].([]any)) != 3 {
		t.Fatalf("topk: status %d resp %v", code, resp)
	}

	code, resp = doJSON(t, sv, "GET", "/v1/sessions/iris/history", nil)
	if code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if got := len(resp["history"].([]any)); got < 3 {
		t.Fatalf("history: %d records, want ≥3 (init + windows + delete)", got)
	}

	code, resp = doJSON(t, sv, "GET", "/v1/sessions", nil)
	if code != http.StatusOK || len(resp["sessions"].([]any)) != 1 {
		t.Fatalf("list: status %d resp %v", code, resp)
	}
}

func TestNotFoundAndValidation(t *testing.T) {
	sv := newTestServer(t, "")
	defer sv.Close()

	if code, _ := doJSON(t, sv, "GET", "/v1/sessions/nope/values", nil); code != http.StatusNotFound {
		t.Fatalf("missing session: status %d, want 404", code)
	}
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions",
		map[string]any{"name": "bad/name"}); code != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, want 400", code)
	}
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions",
		map[string]any{"name": "empty"}); code != http.StatusBadRequest {
		t.Fatalf("no data: status %d, want 400", code)
	}
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions",
		createBody("badmodel", map[string]any{"model": "forest"})); code != http.StatusBadRequest {
		t.Fatalf("bad model: status %d, want 400", code)
	}
}

// TestRestartReplaysJournalTail simulates a crash: updates land in the
// journal tail after the creation snapshot, the server is abandoned
// without Close, and a fresh server on the same data dir must restore the
// session bit-identically from snapshot + tail replay.
func TestRestartReplaysJournalTail(t *testing.T) {
	dir := t.TempDir()
	sv := newTestServer(t, dir)

	if code, resp := doJSON(t, sv, "POST", "/v1/sessions", createBody("s", nil)); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	for i := 0; i < 3; i++ {
		pt := map[string]any{"x": []float64{4.9 + float64(i)/10, 3.0, 1.4, 0.2}, "y": i % 3}
		if code, resp := doJSON(t, sv, "POST", "/v1/sessions/s/add", pt); code != http.StatusOK {
			t.Fatalf("add %d: status %d (%v)", i, code, resp)
		}
	}
	m, _ := sv.lookup("s")
	wantVersion := m.s.Version()
	wantValues := m.s.Values()
	if wantVersion < 2 {
		t.Fatalf("setup: version %d, want ≥2 so the tail is non-empty", wantVersion)
	}
	// Crash: no Close, no snapshot — recovery must come from the tail.

	sv2 := newTestServer(t, dir)
	defer sv2.Close()
	m2, ok := sv2.lookup("s")
	if !ok {
		t.Fatal("restart: session not restored")
	}
	if got := m2.s.Version(); got != wantVersion {
		t.Fatalf("restart: version %d, want %d", got, wantVersion)
	}
	if got := m2.s.Values(); !reflect.DeepEqual(got, wantValues) {
		t.Fatalf("restart: values diverge from pre-crash state\n got %v\nwant %v", got, wantValues)
	}
	// The restored session keeps working.
	pt := map[string]any{"x": []float64{5.0, 3.1, 1.5, 0.2}, "y": 1}
	if code, resp := doJSON(t, sv2, "POST", "/v1/sessions/s/add", pt); code != http.StatusOK {
		t.Fatalf("post-restart add: status %d (%v)", code, resp)
	}
}

// TestSnapshotDuringWritesKeepsAcknowledgedWrites posts /snapshot while a
// writer adds and removes points, and after each round restarts on the
// same directory without Close, as a crash would. Every acknowledged write
// must come back: the restored session stands at the last acknowledged
// version, with the values the crashed server published there.
func TestSnapshotDuringWritesKeepsAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	sv := newTestServer(t, dir)
	body := createBody("s", map[string]any{"model": "softknn", "keep_permutations": false, "coalesce_batch": 1})
	if _, err := serveJSON(sv, "POST", "/v1/sessions", body); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		var done atomic.Bool
		var snapErr error
		var snapper sync.WaitGroup
		snapper.Add(1)
		go func() {
			defer snapper.Done()
			for !done.Load() {
				if _, snapErr = serveJSON(sv, "POST", "/v1/sessions/s/snapshot", nil); snapErr != nil {
					return
				}
			}
		}()
		acked := 0
		var writeErr error
		for i := 0; i < 6; i++ {
			path, write := "add", any(map[string]any{"x": []float64{4.8 + 0.1*float64(i), 3.0, 1.3 + 0.2*float64(round), 0.2}, "y": i % 3})
			if i%3 == 2 {
				path, write = "remove", map[string]any{"indices": []int{round}}
			}
			var resp map[string]any
			if resp, writeErr = serveJSON(sv, "POST", "/v1/sessions/s/"+path, write); writeErr != nil {
				break
			}
			acked = int(resp["version"].(float64))
		}
		done.Store(true)
		snapper.Wait()
		if err := errors.Join(writeErr, snapErr); err != nil {
			t.Fatal(err)
		}
		m, _ := sv.lookup("s")
		want := m.s.Values()

		sv = newTestServer(t, dir)
		m2, ok := sv.lookup("s")
		if !ok {
			t.Fatalf("round %d: session not restored", round)
		}
		if got := m2.s.Version(); got != acked {
			t.Fatalf("round %d: restored version %d, last acknowledged %d", round, got, acked)
		}
		if got := m2.s.Values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored values diverge from the acknowledged state", round)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashWithTail creates session "s" on a server in dir, adds the given
// points, and abandons the server without Close, as a crash would. It
// returns the session's version and values at the crash and the journal
// tail's path.
func crashWithTail(t *testing.T, dir string, adds int) (int, []float64, string) {
	t.Helper()
	sv := newTestServer(t, dir)
	if code, resp := doJSON(t, sv, "POST", "/v1/sessions", createBody("s", nil)); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	for i := 0; i < adds; i++ {
		pt := map[string]any{"x": []float64{4.9 + float64(i)/10, 3.0, 1.4, 0.2}, "y": i % 3}
		if code, resp := doJSON(t, sv, "POST", "/v1/sessions/s/add", pt); code != http.StatusOK {
			t.Fatalf("add %d: status %d (%v)", i, code, resp)
		}
	}
	m, _ := sv.lookup("s")
	return m.s.Version(), m.s.Values(), sv.tailPath("s")
}

// appendBytes appends b to the file at path, as a write cut short by a
// crash would leave it.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// A crash in the middle of an append leaves a torn final record, which
// was never acknowledged. A restart restores the last complete version
// with the same values instead of refusing to start.
func TestRestartDropsTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	wantVersion, wantValues, tail := crashWithTail(t, dir, 3)
	appendBytes(t, tail, []byte(`{"version":5,"op":"add","poi`))

	sv2 := newTestServer(t, dir)
	defer sv2.Close()
	m2, ok := sv2.lookup("s")
	if !ok {
		t.Fatal("restart: session not restored")
	}
	if got := m2.s.Version(); got != wantVersion {
		t.Fatalf("restart: version %d, want %d", got, wantVersion)
	}
	if got := m2.s.Values(); !reflect.DeepEqual(got, wantValues) {
		t.Fatalf("restart: values diverge from the last complete record\n got %v\nwant %v", got, wantValues)
	}
}

// With nothing after the snapshot but a torn record, the restart replays
// nothing and keeps the tail file; it must cut the torn bytes off, or the
// next append would land behind them and a second restart would fail.
func TestRestartAfterOnlyTornRecordKeepsLaterAdds(t *testing.T) {
	dir := t.TempDir()
	wantVersion, _, tail := crashWithTail(t, dir, 0)
	appendBytes(t, tail, []byte(`{"version":2,"op":"add","points":[{"x":[4.9,3`))

	sv2 := newTestServer(t, dir)
	m2, ok := sv2.lookup("s")
	if !ok {
		t.Fatal("restart: session not restored")
	}
	if got := m2.s.Version(); got != wantVersion {
		t.Fatalf("restart: version %d, want %d", got, wantVersion)
	}
	pt := map[string]any{"x": []float64{5.0, 3.1, 1.5, 0.2}, "y": 1}
	if code, resp := doJSON(t, sv2, "POST", "/v1/sessions/s/add", pt); code != http.StatusOK {
		t.Fatalf("post-restart add: status %d (%v)", code, resp)
	}
	wantValues := m2.s.Values()
	// Crash again: the add lives only in the tail.

	sv3 := newTestServer(t, dir)
	defer sv3.Close()
	m3, ok := sv3.lookup("s")
	if !ok {
		t.Fatal("second restart: session not restored")
	}
	if got := m3.s.Version(); got != wantVersion+1 {
		t.Fatalf("second restart: version %d, want %d", got, wantVersion+1)
	}
	if got := m3.s.Values(); !reflect.DeepEqual(got, wantValues) {
		t.Fatalf("second restart: values diverge\n got %v\nwant %v", got, wantValues)
	}
}

// A record that fails to decode before the last line is corruption, not a
// torn append: the restore must still fail.
func TestRestartRejectsCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	_, _, tail := crashWithTail(t, dir, 2)
	b, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(b, '\n')
	if first < 0 || first == len(b)-1 {
		t.Fatalf("setup: tail holds %d bytes, want two records", len(b))
	}
	corrupt := append([]byte(`{"version":`), b[first:]...)
	if err := os.WriteFile(tail, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir}); err == nil {
		t.Fatal("restart accepted a corrupt record in the middle of the tail")
	}
}

// TestCloseDrainsAndSnapshots verifies graceful shutdown: a Close with
// in-flight submissions executes them, persists a snapshot at the final
// version, and a restart resumes from the snapshot with an empty tail.
func TestCloseDrainsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	sv := newTestServer(t, dir)
	if code, resp := doJSON(t, sv, "POST", "/v1/sessions",
		createBody("s", map[string]any{"coalesce_delay_ms": 50})); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	m, _ := sv.lookup("s")
	// Submit directly (bypassing the HTTP wait) so the window is still
	// open when Close runs.
	h := m.s.SubmitAdd(dynshap.Point{X: []float64{5.0, 3.3, 1.4, 0.2}, Y: 0})
	if err := sv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("handle after Close: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("drained add: version %d, want 2", res.Version)
	}

	sv2 := newTestServer(t, dir)
	defer sv2.Close()
	m2, ok := sv2.lookup("s")
	if !ok {
		t.Fatal("restart after Close: session not restored")
	}
	if got := m2.s.Version(); got != 2 {
		t.Fatalf("restart after Close: version %d, want 2", got)
	}
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions", createBody("late", nil)); code != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: status %d, want 503", code)
	}
}

func TestCoalescingWindowsOverHTTP(t *testing.T) {
	sv := newTestServer(t, "")
	defer sv.Close()
	if code, resp := doJSON(t, sv, "POST", "/v1/sessions",
		createBody("s", map[string]any{"coalesce_batch": 16, "coalesce_delay_ms": 40})); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	const adds = 8
	var wg sync.WaitGroup
	windows := make([]int, adds)
	for i := 0; i < adds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt := map[string]any{"x": []float64{5.1, 3.4, 1.6, 0.3}, "y": i % 3}
			code, resp := doJSON(t, sv, "POST", "/v1/sessions/s/add", pt)
			if code == http.StatusOK {
				windows[i] = int(resp["window"].(float64))
			}
		}(i)
	}
	wg.Wait()
	max := 0
	for _, w := range windows {
		if w > max {
			max = w
		}
	}
	// With a 40ms window and concurrent submitters at least one window
	// should have coalesced >1 add. Timing-dependent in principle, but the
	// first request opens a window that waits 40ms while the rest queue.
	if max < 2 {
		t.Logf("warning: no window coalesced (max=1) — timing-dependent, not failing")
	}
	if code, _ := doJSON(t, sv, "POST", "/v1/sessions/s/flush", nil); code != http.StatusOK {
		t.Fatalf("flush failed")
	}
	_ = time.Millisecond
}

// TestPooledReadsSetContentLength: the hot read endpoints encode into
// pooled buffers and therefore know the body size before the first write —
// the response must carry an exact Content-Length, and repeated reads must
// return identical, well-formed bodies (a recycled buffer never leaks a
// previous response's bytes).
func TestPooledReadsSetContentLength(t *testing.T) {
	sv := newTestServer(t, "")
	defer sv.Close()
	if code, resp := doJSON(t, sv, "POST", "/v1/sessions", createBody("p", nil)); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, resp)
	}
	for _, path := range []string{"/v1/sessions/p/values", "/v1/sessions/p/topk?k=5"} {
		var first []byte
		for i := 0; i < 3; i++ {
			req := httptest.NewRequest("GET", path, nil)
			rec := httptest.NewRecorder()
			sv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rec.Code)
			}
			cl := rec.Header().Get("Content-Length")
			if cl == "" {
				t.Fatalf("%s: no Content-Length header", path)
			}
			if cl != fmt.Sprint(rec.Body.Len()) {
				t.Fatalf("%s: Content-Length %s != body length %d", path, cl, rec.Body.Len())
			}
			var out map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: malformed body: %v", path, err)
			}
			if i == 0 {
				first = append([]byte(nil), rec.Body.Bytes()...)
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("%s: repeated read diverged (pooled buffer leak?)", path)
			}
		}
	}
}

// serveJSON serves one request in-process and decodes its JSON body. Unlike
// doJSON it reports failures as errors, so any goroutine may call it.
func serveJSON(h http.Handler, method, path string, body any) (map[string]any, error) {
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("%s %s: status %d (%s)", method, path, rec.Code, rec.Body.String())
	}
	out := map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return out, nil
}

// TestReadsPairVersionWithItsValues checks that GET /values and GET /topk
// answer from one published version: while one writer adds and removes
// points on an exact session, two readers poll both endpoints, and every
// response's values and top-k must equal what a twin session, driven
// through the same writes one at a time, published at that response's
// version.
func TestReadsPairVersionWithItsValues(t *testing.T) {
	sv := newTestServer(t, "")
	defer sv.Close()
	const topK = 5
	create := func(name string) {
		t.Helper()
		body := createBody(name, map[string]any{"model": "softknn", "keep_permutations": false, "coalesce_batch": 1})
		if _, err := serveJSON(sv, "POST", "/v1/sessions", body); err != nil {
			t.Fatal(err)
		}
	}
	type write struct {
		path string
		body any
	}
	// A torn read needs a write to land between two loads nanoseconds
	// apart, so the writes are many and cheap: adds alternate with removes,
	// keeping n near its start.
	var writes []write
	for i := 0; i < 2000; i++ {
		if i%2 == 1 {
			writes = append(writes, write{"remove", map[string]any{"indices": []int{i % 7}}})
			continue
		}
		x := []float64{4.6 + 0.05*float64(i%40), 2.8 + 0.1*float64(i%7), 1.2 + 0.3*float64(i%5), 0.1 + 0.4*float64(i%4)}
		writes = append(writes, write{"add", map[string]any{"x": x, "y": i % 3}})
	}

	// The twin takes the writes one at a time; with no concurrent writer,
	// its session's reads after each write are that version's.
	type published struct {
		values []float64
		topk   []int
	}
	want := map[int]published{}
	create("twin")
	twin, _ := sv.lookup("twin")
	record := func() {
		v := twin.s.View()
		want[v.Version()] = published{v.Values(), v.TopK(topK)}
	}
	record()
	for _, w := range writes {
		if _, err := serveJSON(sv, "POST", "/v1/sessions/twin/"+w.path, w.body); err != nil {
			t.Fatal(err)
		}
		record()
	}

	create("live")
	var done atomic.Bool
	var readers sync.WaitGroup
	responses := make([][]map[string]any, 2)
	readErrs := make([]error, 2)
	for r := range responses {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !done.Load() {
				for _, path := range []string{"/v1/sessions/live/values", fmt.Sprintf("/v1/sessions/live/topk?k=%d", topK)} {
					resp, err := serveJSON(sv, "GET", path, nil)
					if err != nil {
						readErrs[r] = err
						return
					}
					responses[r] = append(responses[r], resp)
				}
			}
		}(r)
	}
	for _, w := range writes {
		if _, err := serveJSON(sv, "POST", "/v1/sessions/live/"+w.path, w.body); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	readers.Wait()
	for _, err := range readErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	floats := func(a []any) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x.(float64)
		}
		return out
	}
	checked := 0
	for r, rs := range responses {
		for _, resp := range rs {
			v := int(resp["version"].(float64))
			pub, ok := want[v]
			if !ok {
				t.Fatalf("reader %d: version %d was never published by the twin", r, v)
			}
			if vals, ok := resp["values"]; ok && !reflect.DeepEqual(floats(vals.([]any)), pub.values) {
				t.Fatalf("reader %d: /values at version %d differ from the twin's at that version", r, v)
			}
			if top, ok := resp["topk"]; ok {
				got := make([]int, 0, topK)
				for _, x := range floats(top.([]any)) {
					got = append(got, int(x))
				}
				if !reflect.DeepEqual(got, pub.topk) {
					t.Fatalf("reader %d: /topk at version %d is %v, twin published %v", r, v, got, pub.topk)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("readers completed no reads")
	}
}
