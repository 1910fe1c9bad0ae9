// Package serve implements dynshapd's HTTP layer: a registry of named
// valuation sessions, each fronted by its own write-coalescing pipeline,
// with JSON endpoints for creation, async updates, non-blocking reads,
// and durable snapshots.
//
// Updates and reads deliberately take different paths. A POST /add
// submits one point into the session's coalescer and blocks only that
// request's goroutine on the returned future — concurrent adds from many
// clients land in one admission window and are priced by ONE batched
// permutation pass, which is where the batch walks' throughput win
// becomes reachable under traffic the paper's setting implies (many
// independent contributors, one broker). Reads go straight to the
// session's versioned store and never wait behind an open window.
//
// Durability is snapshot-v2 plus a journal tail: every executed update
// appends its journal record as one JSON line to <name>.journal.jsonl;
// a snapshot (explicit endpoint, session close, or server shutdown)
// embeds the full journal and truncates the tail. Restart loads the
// snapshot, then re-executes any tail records past the snapshot version
// with Session.ApplyRecord — bit-identical, because operation randomness
// is keyed by (seed, version).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynshap"
	"dynshap/internal/atomicfile"
)

// Config configures a Server.
type Config struct {
	// DataDir is where session snapshots, journal tails, and session
	// metadata live. Empty disables persistence (sessions are
	// memory-only and die with the server).
	DataDir string
}

// Server manages named valuation sessions over HTTP. It implements
// http.Handler; construct with New, and call Close to drain and persist
// every session before exit.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.RWMutex
	sessions map[string]*managed
	closed   bool
}

// managed is one registered session plus its durability state.
type managed struct {
	name string
	meta sessionMeta
	s    *dynshap.Session

	// mu guards the journal tail below. buf and enc are the reused
	// encode buffer: one heap allocation serves every appended record.
	mu         sync.Mutex
	tail       *os.File
	buf        bytes.Buffer
	enc        *json.Encoder
	lastLogged int
}

// sessionMeta is the sidecar record of everything a restart needs that
// the snapshot deliberately does not carry: the trainer selection and
// the runtime-only coalescing bounds.
type sessionMeta struct {
	Model           string `json:"model"`
	KNNK            int    `json:"knn_k,omitempty"`
	CoalesceBatch   int    `json:"coalesce_batch,omitempty"`
	CoalesceDelayUS int64  `json:"coalesce_delay_us,omitempty"`
}

// wirePoint is the JSON shape of one labelled observation.
type wirePoint struct {
	X []float64 `json:"x"`
	Y int       `json:"y"`
}

func toPoints(ws []wirePoint) []dynshap.Point {
	pts := make([]dynshap.Point, len(ws))
	for i, w := range ws {
		pts[i] = dynshap.Point{X: w.X, Y: w.Y}
	}
	return pts
}

// createRequest is the POST /v1/sessions body. Either Synthetic or
// explicit Train/Test points must be given.
type createRequest struct {
	Name      string `json:"name"`
	Synthetic *struct {
		Kind      string  `json:"kind"` // "iris" (default) or "adult"
		Total     int     `json:"total"`
		TrainFrac float64 `json:"train_frac,omitempty"` // default 0.8
		Seed      uint64  `json:"seed,omitempty"`
	} `json:"synthetic,omitempty"`
	Train []wirePoint `json:"train,omitempty"`
	Test  []wirePoint `json:"test,omitempty"`

	Model         string `json:"model,omitempty"` // "knn" (default), "softknn", "svm"
	KNNK          int    `json:"knn_k,omitempty"`
	Samples       int    `json:"samples,omitempty"`
	UpdateSamples int    `json:"update_samples,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	KeepPerms     bool   `json:"keep_permutations,omitempty"`
	Workers       int    `json:"workers,omitempty"`

	CoalesceBatch   int `json:"coalesce_batch,omitempty"`
	CoalesceDelayMS int `json:"coalesce_delay_ms,omitempty"`
}

func trainerFor(meta sessionMeta) (dynshap.Trainer, error) {
	k := meta.KNNK
	if k == 0 {
		k = 5
	}
	switch meta.Model {
	case "", "knn":
		return dynshap.KNNClassifier{K: k}, nil
	case "softknn":
		return dynshap.SoftKNNClassifier{K: k}, nil
	case "svm":
		return dynshap.SVM{}, nil
	default:
		return nil, fmt.Errorf("unknown model %q (want knn, softknn or svm)", meta.Model)
	}
}

// New builds a server and, when cfg.DataDir holds persisted sessions,
// restores each one: snapshot resume plus journal-tail replay.
func New(cfg Config) (*Server, error) {
	sv := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sessions: make(map[string]*managed),
	}
	sv.routes()
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		if err := sv.restoreAll(); err != nil {
			return nil, err
		}
	}
	return sv, nil
}

func (sv *Server) routes() {
	sv.mux.HandleFunc("POST /v1/sessions", sv.handleCreate)
	sv.mux.HandleFunc("GET /v1/sessions", sv.handleList)
	sv.mux.HandleFunc("GET /v1/sessions/{name}", sv.handleInfo)
	sv.mux.HandleFunc("DELETE /v1/sessions/{name}", sv.handleDelete)
	sv.mux.HandleFunc("POST /v1/sessions/{name}/add", sv.handleAdd)
	sv.mux.HandleFunc("POST /v1/sessions/{name}/remove", sv.handleRemove)
	sv.mux.HandleFunc("POST /v1/sessions/{name}/flush", sv.handleFlush)
	sv.mux.HandleFunc("POST /v1/sessions/{name}/snapshot", sv.handleSnapshot)
	sv.mux.HandleFunc("GET /v1/sessions/{name}/values", sv.handleValues)
	sv.mux.HandleFunc("GET /v1/sessions/{name}/topk", sv.handleTopK)
	sv.mux.HandleFunc("GET /v1/sessions/{name}/history", sv.handleHistory)
	sv.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

// ServeHTTP dispatches to the registered routes.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// encodeBufs recycles the JSON encode buffers of the hot read endpoints.
// A /values response for a large session is tens of kilobytes; encoding
// into a pooled buffer instead of the ResponseWriter means steady-state
// reads allocate no response-sized garbage and, because the full body is
// in hand before the first byte is written, the response carries an exact
// Content-Length instead of falling back to chunked transfer encoding.
var encodeBufs = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledBuf caps what goes back in the pool; a one-off giant response
// should not pin its buffer for the life of the process.
const maxPooledBuf = 1 << 20

// writeJSONPooled encodes v into a pooled buffer, sets Content-Length,
// and writes the body in one shot. Use it on hot read paths; error paths
// and one-shot admin endpoints keep the simpler writeJSON.
func writeJSONPooled(w http.ResponseWriter, status int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encodeBufs.Put(buf)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encodeBufs.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (sv *Server) lookup(name string) (*managed, bool) {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	m, ok := sv.sessions[name]
	return m, ok
}

func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		ok := r == '-' || r == '_' || ('0' <= r && r <= '9') ||
			('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if !validName(req.Name) {
		writeErr(w, http.StatusBadRequest, errors.New("session name must be 1-64 chars of [A-Za-z0-9_-]"))
		return
	}
	var train, test *dynshap.Dataset
	switch {
	case req.Synthetic != nil:
		total := req.Synthetic.Total
		if total <= 0 {
			total = 250
		}
		frac := req.Synthetic.TrainFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.8
		}
		seed := req.Synthetic.Seed
		if seed == 0 {
			seed = 1
		}
		var d *dynshap.Dataset
		switch req.Synthetic.Kind {
		case "", "iris":
			d = dynshap.IrisLike(total, seed)
		case "adult":
			d = dynshap.AdultLike(total, seed)
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown synthetic kind %q", req.Synthetic.Kind))
			return
		}
		train, test = d.Split(frac)
	case len(req.Train) > 0 && len(req.Test) > 0:
		train = dynshap.NewDataset(toPoints(req.Train))
		test = dynshap.NewDataset(toPoints(req.Test))
	default:
		writeErr(w, http.StatusBadRequest, errors.New("provide either synthetic or train+test points"))
		return
	}

	meta := sessionMeta{
		Model:           req.Model,
		KNNK:            req.KNNK,
		CoalesceBatch:   req.CoalesceBatch,
		CoalesceDelayUS: int64(req.CoalesceDelayMS) * 1000,
	}
	trainer, err := trainerFor(meta)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var opts []dynshap.Option
	if req.Samples > 0 {
		opts = append(opts, dynshap.WithSamples(req.Samples))
	}
	if req.UpdateSamples > 0 {
		opts = append(opts, dynshap.WithUpdateSamples(req.UpdateSamples))
	}
	if req.Seed != 0 {
		opts = append(opts, dynshap.WithSeed(req.Seed))
	}
	if req.KeepPerms {
		opts = append(opts, dynshap.WithKeepPermutations())
	}
	if req.Workers != 0 {
		opts = append(opts, dynshap.WithWorkers(req.Workers))
	}
	opts = append(opts, coalesceOption(meta))

	s := dynshap.NewSession(train, test, trainer, opts...)
	if err := s.Init(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	m := &managed{name: req.Name, meta: meta, s: s}
	m.enc = json.NewEncoder(&m.buf)

	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		return
	}
	if _, dup := sv.sessions[req.Name]; dup {
		sv.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("session %q already exists", req.Name))
		return
	}
	sv.sessions[req.Name] = m
	sv.mu.Unlock()

	if err := sv.persistMeta(m); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := sv.persistSnapshot(m); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "version": s.Version(), "n": s.N(),
	})
}

func coalesceOption(meta sessionMeta) dynshap.Option {
	batch, delay := meta.CoalesceBatch, time.Duration(meta.CoalesceDelayUS)*time.Microsecond
	if batch == 0 {
		batch = dynshap.DefaultCoalesceBatch
	}
	if delay == 0 {
		delay = dynshap.DefaultCoalesceDelay
	}
	return dynshap.WithCoalescing(batch, delay)
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sv.mu.RLock()
	names := make([]string, 0, len(sv.sessions))
	for name := range sv.sessions {
		names = append(names, name)
	}
	sv.mu.RUnlock()
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		if m, ok := sv.lookup(name); ok {
			out = append(out, map[string]any{
				"name": name, "version": m.s.Version(), "n": m.s.N(),
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (sv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":      m.name,
		"version":   m.s.Version(),
		"n":         m.s.N(),
		"model":     m.meta.Model,
		"trainings": m.s.ModelTrainings(),
	})
}

// handleAdd submits one point through the session's coalescer and waits
// for its window to execute. Concurrent requests share windows — that is
// the point.
func (sv *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	var wp wirePoint
	if err := json.NewDecoder(r.Body).Decode(&wp); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding point: %w", err))
		return
	}
	if len(wp.X) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("point needs a non-empty x vector"))
		return
	}
	res, err := m.s.SubmitAdd(dynshap.Point{X: wp.X, Y: wp.Y}).Wait()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if err := sv.logThrough(m, res.Version); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": res.Version,
		"index":   res.Index,
		"value":   res.Value,
		"window":  res.Window,
		"algo":    res.Algo,
	})
}

func (sv *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	var req struct {
		Indices []int `json:"indices"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding indices: %w", err))
		return
	}
	if len(req.Indices) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("indices must be non-empty"))
		return
	}
	res, err := m.s.SubmitDelete(req.Indices).Wait()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if err := sv.logThrough(m, res.Version); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": res.Version,
		"algo":    res.Algo,
	})
}

func (sv *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	if err := m.s.Flush(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := sv.logThrough(m, m.s.Version()); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": m.s.Version()})
}

// handleValues is a non-blocking read of the latest published estimates.
// The version and the values come from one View, so a write landing
// mid-request cannot pair one version's number with the next one's values.
func (sv *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	view := m.s.View()
	writeJSONPooled(w, http.StatusOK, map[string]any{
		"version": view.Version(),
		"values":  view.Values(),
	})
}

func (sv *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("k must be a positive integer"))
			return
		}
		k = v
	}
	view := m.s.View()
	writeJSONPooled(w, http.StatusOK, map[string]any{
		"version": view.Version(),
		"topk":    view.TopK(k),
	})
}

func (sv *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	hist := m.s.History()
	if q := r.URL.Query().Get("from"); q != "" {
		from, err := strconv.Atoi(q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("from must be an integer version"))
			return
		}
		i := 0
		for i < len(hist) && hist[i].Version < from {
			i++
		}
		hist = hist[i:]
	}
	writeJSON(w, http.StatusOK, map[string]any{"history": hist})
}

func (sv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	m, ok := sv.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	if err := m.s.Flush(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := sv.persistSnapshot(m); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": m.s.Version()})
}

// handleDelete drains and unregisters a session. Persisted files remain
// (a later restart restores it); callers wanting the data gone remove
// the files.
func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sv.mu.Lock()
	m, ok := sv.sessions[name]
	if ok {
		delete(sv.sessions, name)
	}
	sv.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	if err := sv.retire(m); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": name})
}

// retire drains a session's pipeline, persists its final state, and
// closes its tail file.
func (sv *Server) retire(m *managed) error {
	if err := m.s.Close(); err != nil {
		return err
	}
	if err := sv.persistSnapshot(m); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tail != nil {
		err := m.tail.Close()
		m.tail = nil
		return err
	}
	return nil
}

// Close drains every session (graceful shutdown): coalescers execute
// everything admitted, snapshots persist, tails close. New sessions are
// refused afterwards.
func (sv *Server) Close() error {
	sv.mu.Lock()
	sv.closed = true
	ms := make([]*managed, 0, len(sv.sessions))
	for _, m := range sv.sessions {
		ms = append(ms, m)
	}
	sv.sessions = make(map[string]*managed)
	sv.mu.Unlock()
	var first error
	for _, m := range ms {
		if err := sv.retire(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- durability ---

func (sv *Server) metaPath(name string) string {
	return filepath.Join(sv.cfg.DataDir, name+".meta.json")
}
func (sv *Server) snapPath(name string) string {
	return filepath.Join(sv.cfg.DataDir, name+".snap.json")
}
func (sv *Server) tailPath(name string) string {
	return filepath.Join(sv.cfg.DataDir, name+".journal.jsonl")
}

func (sv *Server) persistMeta(m *managed) error {
	if sv.cfg.DataDir == "" {
		return nil
	}
	b, err := json.Marshal(m.meta)
	if err != nil {
		return err
	}
	return atomicfile.Write(sv.metaPath(m.name), b, 0o644)
}

// persistSnapshot writes the session's snapshot-v2 document and rewrites
// the journal tail to the records past it. Writers may run while the
// snapshot is taken, so records in (snapshot version, lastLogged] can be
// logged — and acknowledged — already: the new tail keeps them. It
// replaces the old tail in one rename, so a crash at any point leaves
// every acknowledged record in the snapshot or the tail on disk.
func (sv *Server) persistSnapshot(m *managed) error {
	if sv.cfg.DataDir == "" {
		return nil
	}
	sn := m.s.Snapshot()
	if err := sn.Save(sv.snapPath(m.name)); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf.Reset()
	for v := sn.Version + 1; v <= m.lastLogged; v++ {
		if err := m.encode(v); err != nil {
			return err
		}
	}
	if m.tail != nil {
		// The next append reopens the replaced file.
		err := m.tail.Close()
		m.tail = nil
		if err != nil {
			return err
		}
	}
	if m.buf.Len() > 0 {
		if err := atomicfile.Write(sv.tailPath(m.name), m.buf.Bytes(), 0o644); err != nil {
			return err
		}
	} else if err := os.Remove(sv.tailPath(m.name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	m.lastLogged = max(m.lastLogged, sn.Version)
	return nil
}

// encode appends journal record v to m.buf as one JSON line.
func (m *managed) encode(v int) error {
	rec, err := m.s.At(v)
	if err != nil {
		return fmt.Errorf("journal tail: %w", err)
	}
	return m.enc.Encode(rec)
}

// logThrough appends every journal record in (lastLogged, version] to the
// session's tail file — the crash-recovery delta since the last snapshot.
// The encode buffer is reused across appends; steady state allocates
// nothing but the record copy History hands back.
func (sv *Server) logThrough(m *managed, version int) error {
	if sv.cfg.DataDir == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if version <= m.lastLogged {
		return nil
	}
	if m.tail == nil {
		f, err := os.OpenFile(sv.tailPath(m.name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		m.tail = f
	}
	for v := m.lastLogged + 1; v <= version; v++ {
		m.buf.Reset()
		if err := m.encode(v); err != nil {
			return err
		}
		if _, err := m.tail.Write(m.buf.Bytes()); err != nil {
			return err
		}
	}
	m.lastLogged = version
	return nil
}

// restoreAll rebuilds every persisted session: snapshot resume, then
// journal-tail replay of records past the snapshot version.
func (sv *Server) restoreAll() error {
	entries, err := os.ReadDir(sv.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".snap.json")
		if !ok || !validName(name) {
			continue
		}
		if err := sv.restore(name); err != nil {
			return fmt.Errorf("serve: restoring session %q: %w", name, err)
		}
	}
	return nil
}

func (sv *Server) restore(name string) error {
	var meta sessionMeta
	if b, err := os.ReadFile(sv.metaPath(name)); err == nil {
		if err := json.Unmarshal(b, &meta); err != nil {
			return fmt.Errorf("meta: %w", err)
		}
	}
	trainer, err := trainerFor(meta)
	if err != nil {
		return err
	}
	sn, err := dynshap.LoadSnapshot(sv.snapPath(name))
	if err != nil {
		return err
	}
	s, err := sn.Resume(trainer, coalesceOption(meta))
	if err != nil {
		return err
	}
	s, replayed, err := replayTail(s, sv.tailPath(name))
	if err != nil {
		return err
	}
	m := &managed{name: name, meta: meta, s: s, lastLogged: s.Version()}
	m.enc = json.NewEncoder(&m.buf)
	sv.sessions[name] = m
	if replayed > 0 {
		// Fold the replayed tail into a fresh snapshot so a crash loop
		// never replays the same records twice into a stale tail.
		return sv.persistSnapshot(m)
	}
	return nil
}

// replayTail re-executes the journal records in path whose version is
// past the session's, returning the (possibly rebuilt) session and how
// many records applied.
//
// A freshly resumed session holds values but not sampling artifacts — the
// snapshot does not persist stored permutations or deletion arrays. A
// tail record whose algorithm needs them (Pivot-s, YN-NN, the batch
// walks) therefore fails with ErrNotInitialized; recovery then rebuilds
// the entire history deterministically with ReplayTo — which re-runs Init
// and every journaled update, recreating the artifacts bit-identically —
// and retries the record against the rebuilt session.
//
// A crash in the middle of an append leaves a torn final record: a last
// line with no trailing newline that does not decode. No reply went out
// for it (handlers reply once logThrough returns), so replay stops at the
// last complete record and the file is truncated back to it, where the
// next append continues. A record that fails to decode anywhere else is
// corruption and fails the restore.
func replayTail(s *dynshap.Session, path string) (*dynshap.Session, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return s, 0, nil
		}
		return nil, 0, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	replayed := 0
	for dec.More() {
		start := dec.InputOffset()
		var rec dynshap.UpdateRecord
		if err := dec.Decode(&rec); err != nil {
			rest := bytes.TrimLeft(b[start:], " \t\r\n")
			if bytes.IndexByte(rest, '\n') >= 0 {
				return nil, replayed, fmt.Errorf("journal tail: %w", err)
			}
			if err := os.Truncate(path, int64(len(b)-len(rest))); err != nil {
				return nil, replayed, fmt.Errorf("journal tail: dropping a torn record: %w", err)
			}
			break
		}
		if rec.Version <= s.Version() {
			continue
		}
		if err := s.ApplyRecord(rec); err != nil {
			if !errors.Is(err, dynshap.ErrNotInitialized) {
				return nil, replayed, fmt.Errorf("journal tail version %d: %w", rec.Version, err)
			}
			rebuilt, rerr := s.ReplayTo(s.Version())
			if rerr != nil {
				return nil, replayed, fmt.Errorf("journal tail: rebuilding artifacts: %w", rerr)
			}
			s = rebuilt
			if err := s.ApplyRecord(rec); err != nil {
				return nil, replayed, fmt.Errorf("journal tail version %d (after rebuild): %w", rec.Version, err)
			}
		}
		replayed++
	}
	return s, replayed, nil
}
