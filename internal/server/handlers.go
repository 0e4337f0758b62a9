package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wasm"
)

// predictEnvelope is the JSON request body accepted by POST /v1/predict as
// an alternative to a raw wasm body with query parameters.
type predictEnvelope struct {
	// WasmBase64 is the wasm binary, standard base64.
	WasmBase64 string `json:"wasm_base64"`
	// Func selects one function by export/debug name or decimal index
	// (module-defined index space); empty predicts all defined functions.
	Func string `json:"func,omitempty"`
	// K is the number of ranked predictions per element (default
	// Config.DefaultK, capped at Config.MaxK).
	K int `json:"k,omitempty"`
	// Precision routes the request to a precision tier: "f32" selects the
	// model's single-precision engine (float32 tapes and 8-lane kernels),
	// "" or "f64" the default. Rejected with 400 when the model has no
	// f32 sibling.
	Precision string `json:"precision,omitempty"`
	// Model names the registry model to serve the request; empty means
	// the server's default. A {model} path segment takes precedence.
	Model string `json:"model,omitempty"`
}

// FunctionResult is the predictions for one function.
type FunctionResult struct {
	// Index is the function's index among module-defined functions.
	Index int `json:"index"`
	// Name is the export or debug name, when known.
	Name string `json:"name,omitempty"`
	// Elements maps "param0".."paramN" and "return" to ranked predictions.
	Elements map[string][]core.TypePrediction `json:"elements"`
}

// PredictResponse is the body of a successful POST /v1/predict.
type PredictResponse struct {
	Functions []FunctionResult `json:"functions"`
	// CacheHits counts elements of this response answered from the cache.
	CacheHits int `json:"cache_hits"`
	// Precision reports "f32" when the answering models decode on the
	// single-precision engine — a precision=f32 request, or a quantized
	// model served as primary; omitted for exact f64.
	Precision string `json:"precision,omitempty"`
	// Model and Version identify the registry model (and hot-swap
	// ordinal) that served the request.
	Model   string `json:"model,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// errorResponse is the body of every non-2xx API answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Inc()
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f32 := false
	if es, err := s.acquireModel(""); err == nil {
		f32 = es.f32 != nil
		es.release()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"f32":     f32,
		"default": s.DefaultModel(),
		"models":  len(s.reg.names()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.registry.WriteTo(w)
}

// handleModels serves GET /v1/models: the registry listing.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"default": s.DefaultModel(),
		"models":  s.Models(),
	})
}

// handleModelPut serves PUT /v1/models/{model}: load (or hot-swap) a
// model from disk. The body is a JSON ModelSource.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var src ModelSource
	if err := json.Unmarshal(body, &src); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := s.LoadModel(name, src); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, st := range s.Models() {
		if st.Name == name {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name})
}

// handleModelDelete serves DELETE /v1/models/{model}.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	switch err := s.RemoveModel(name); {
	case errors.Is(err, errModelNotFound):
		s.writeError(w, http.StatusNotFound, "%v", err)
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"removed": name})
	}
}

// predictRequest is one decoded predict request, from either encoding.
type predictRequest struct {
	bin []byte
	// funcSel selects one function by name or index; empty selects all.
	funcSel   string
	k         int
	precision string
	model     string
}

// readRequest decodes a predict request from either encoding, clamping k
// to the configured range. On failure it has already written the error
// response.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (predictRequest, bool) {
	var req predictRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			s.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return req, false
	}
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(ct) {
	case "application/json":
		var env predictEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
			return req, false
		}
		req.bin, err = base64.StdEncoding.DecodeString(env.WasmBase64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid wasm_base64: %v", err)
			return req, false
		}
		req.funcSel, req.k, req.precision, req.model = env.Func, env.K, env.Precision, env.Model
	default:
		// Raw binary body (application/wasm, application/octet-stream, or
		// unlabeled); selection comes from query parameters.
		q := r.URL.Query()
		req.bin = body
		req.funcSel = q.Get("func")
		req.model = q.Get("model")
		req.precision = q.Get("precision")
		if ks := q.Get("k"); ks != "" {
			req.k, err = strconv.Atoi(ks)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "invalid k %q", ks)
				return req, false
			}
		}
	}
	switch req.precision {
	case "", "f64", "f32":
	default:
		s.writeError(w, http.StatusBadRequest, "invalid precision %q (want f64 or f32)", req.precision)
		return req, false
	}
	if req.k <= 0 {
		req.k = s.cfg.DefaultK
	}
	if req.k > s.cfg.MaxK {
		req.k = s.cfg.MaxK
	}
	if len(req.bin) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty wasm binary")
		return req, false
	}
	return req, true
}

// resolveFuncs maps the func selector to module-defined function indices.
// Exact export/debug names resolve first and numeric index parsing is the
// fallback, so an export literally named "3" selects that export rather
// than function index 3. Name resolution is one pass over the exports and
// one over the functions (not O(funcs×exports)); as before, the lowest
// function index wins when a name is ambiguous.
func resolveFuncs(m *wasm.Module, sel string) ([]int, error) {
	if sel == "" {
		all := make([]int, len(m.Funcs))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	if fi, ok := funcByName(m)[sel]; ok {
		return []int{fi}, nil
	}
	if idx, err := strconv.Atoi(sel); err == nil {
		if idx < 0 || idx >= len(m.Funcs) {
			return nil, fmt.Errorf("function index %d out of range (%d defined functions)", idx, len(m.Funcs))
		}
		return []int{idx}, nil
	}
	return nil, fmt.Errorf("no function named %q", sel)
}

// funcByName builds the name → module-defined-index map resolveFuncs
// consults: every export and debug name of every defined function, lowest
// function index winning on duplicates (the order the old per-function
// scan realized).
func funcByName(m *wasm.Module) map[string]int {
	imported := m.NumImportedFuncs()
	expNames := make(map[uint32][]string)
	for _, e := range m.Exports {
		if e.Kind == wasm.KindFunc {
			expNames[e.Index] = append(expNames[e.Index], e.Name)
		}
	}
	byName := make(map[string]int, len(m.Funcs))
	claim := func(name string, fi int) {
		if name == "" {
			return
		}
		if _, ok := byName[name]; !ok {
			byName[name] = fi
		}
	}
	for fi := range m.Funcs {
		for _, n := range expNames[uint32(fi+imported)] {
			claim(n, fi)
		}
		claim(m.Funcs[fi].Name, fi)
	}
	return byName
}

// funcName returns the export or debug name of a module-defined function.
func funcName(m *wasm.Module, funcIdx int) string {
	abs := uint32(funcIdx + m.NumImportedFuncs())
	for _, e := range m.Exports {
		if e.Kind == wasm.KindFunc && e.Index == abs {
			return e.Name
		}
	}
	return m.Funcs[funcIdx].Name
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	start := time.Now()
	defer func() { s.met.latency.Observe(time.Since(start).Seconds()) }()

	req, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	// The {model} path segment wins over the envelope/query field; both
	// empty routes to the default model.
	if pm := r.PathValue("model"); pm != "" {
		req.model = pm
	}
	es, err := s.acquireModel(req.model)
	if err != nil {
		if errors.Is(err, errModelNotFound) {
			s.writeError(w, http.StatusNotFound, "%v", err)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	// Held for the whole request: a hot swap of this model drains only
	// after every element below has decoded.
	defer es.release()
	es.pm.requests.Inc()
	eng, tier := &es.full, ""
	if req.precision == "f32" {
		if es.f32 == nil {
			s.writeError(w, http.StatusBadRequest, "precision=f32 but model %q has no f32 sibling", es.name)
			return
		}
		eng, tier = es.f32, "f32"
	}
	m, err := core.DecodeStripped(req.bin)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid wasm binary: %v", err)
		return
	}
	funcs, err := resolveFuncs(m, req.funcSel)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	resp := PredictResponse{
		Precision: eng.precision,
		Model:     es.name,
		Version:   es.version,
	}
	var predictErr error
	err = s.submit(ctx, func() {
		resp.Functions, resp.CacheHits, predictErr = s.predictFuncs(ctx, es.pm, eng, tier, m, funcs, req.k)
	})
	switch {
	case errors.Is(err, errQueueFull):
		s.met.rejected.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server overloaded, retry later")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "prediction timed out after %s", s.cfg.RequestTimeout)
		return
	case err != nil: // a panicked job
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if predictErr != nil {
		if errors.Is(predictErr, context.DeadlineExceeded) {
			s.met.timeouts.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "prediction timed out after %s", s.cfg.RequestTimeout)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, "prediction failed: %v", predictErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
