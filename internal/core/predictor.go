package core

import (
	"fmt"

	"repro/internal/dwarf"
	"repro/internal/extract"
	"repro/internal/wasm"
)

// TypePrediction is one ranked prediction for a signature element.
type TypePrediction struct {
	Tokens []string `json:"tokens"`
	// Text is the space-joined token sequence, e.g.
	// "pointer primitive float 64".
	Text string `json:"text"`
	// Confidence is the beam's normalized score: softmax over the
	// surviving beams' sequence log-probabilities, so the k predictions
	// for one element sum to 1. Zero (omitted in JSON) for the
	// uninformative fallback, whose score is not comparable.
	Confidence float64 `json:"confidence,omitempty"`
}

// ParamInput extracts the model input sequence for one parameter of a
// module-defined function — the data-flow slice plus low-level type that
// PredictParam feeds the parameter model. Callers that batch queries
// (the serving layer, per request) extract every input first, then
// decode them together through Trained.PredictTypedCtx.
func (p *Predictor) ParamInput(m *wasm.Module, funcIdx, paramIdx int) ([]string, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	fn := &m.Funcs[funcIdx]
	if int(fn.TypeIdx) >= len(m.Types) {
		return nil, fmt.Errorf("core: function %d has invalid type index", funcIdx)
	}
	sig := m.Types[fn.TypeIdx]
	if paramIdx < 0 || paramIdx >= len(sig.Params) {
		return nil, fmt.Errorf("core: parameter index %d out of range (%d params)", paramIdx, len(sig.Params))
	}
	return extract.InputForParam(fn, paramIdx, sig.Params[paramIdx], p.Opts), nil
}

// ReturnInput extracts the model input sequence for a module-defined
// function's return value (the batched counterpart of PredictReturn's
// extraction step).
func (p *Predictor) ReturnInput(m *wasm.Module, funcIdx int) ([]string, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	fn := &m.Funcs[funcIdx]
	if int(fn.TypeIdx) >= len(m.Types) {
		return nil, fmt.Errorf("core: function %d has invalid type index", funcIdx)
	}
	sig := m.Types[fn.TypeIdx]
	if len(sig.Results) == 0 {
		return nil, fmt.Errorf("core: function %d returns no value", funcIdx)
	}
	return extract.InputForReturn(fn, sig.Results[0], p.Opts), nil
}

// PredictParam predicts the high-level type of one parameter of a
// module-defined function in a (possibly stripped) binary.
func (p *Predictor) PredictParam(m *wasm.Module, funcIdx, paramIdx, k int) ([]TypePrediction, error) {
	if p.Param == nil {
		return nil, fmt.Errorf("core: predictor has no parameter model")
	}
	input, err := p.ParamInput(m, funcIdx, paramIdx)
	if err != nil {
		return nil, err
	}
	return p.Param.PredictTyped([][]string{input}, []int{k})[0], nil
}

// PredictReturn predicts the high-level return type of a module-defined
// function.
func (p *Predictor) PredictReturn(m *wasm.Module, funcIdx, k int) ([]TypePrediction, error) {
	if p.Return == nil {
		return nil, fmt.Errorf("core: predictor has no return model")
	}
	input, err := p.ReturnInput(m, funcIdx)
	if err != nil {
		return nil, err
	}
	return p.Return.PredictTyped([][]string{input}, []int{k})[0], nil
}

// DecodeStripped decodes a wasm binary and strips its DWARF custom
// sections, yielding the module exactly as a reverse engineer (or the
// prediction server) sees it: code only, no ground truth. All prediction
// entry points that start from raw bytes share this helper.
func DecodeStripped(bin []byte) (*wasm.Module, error) {
	d, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	dwarf.Strip(d.Module)
	return d.Module, nil
}

// PredictBinary decodes a binary, strips its debug info, and predicts all
// parameter and return types of one function, returning them keyed by
// element name ("param0".."paramN", "return").
func (p *Predictor) PredictBinary(bin []byte, funcIdx, k int) (map[string][]TypePrediction, error) {
	m, err := DecodeStripped(bin)
	if err != nil {
		return nil, err
	}
	return p.PredictModule(m, funcIdx, k)
}

// PredictModule predicts all parameter and return types of one
// module-defined function of an already-decoded (and typically stripped)
// module. Callers that decode once and query many functions — the predict
// CLI, the serving layer — use this to avoid re-decoding per query and to
// guarantee predictions run on the module they inspected.
func (p *Predictor) PredictModule(m *wasm.Module, funcIdx, k int) (map[string][]TypePrediction, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	sig, err := m.FuncTypeAt(uint32(funcIdx + m.NumImportedFuncs()))
	if err != nil {
		return nil, err
	}
	out := map[string][]TypePrediction{}
	for pi := range sig.Params {
		preds, err := p.PredictParam(m, funcIdx, pi, k)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("param%d", pi)] = preds
	}
	if len(sig.Results) > 0 && p.Return != nil {
		preds, err := p.PredictReturn(m, funcIdx, k)
		if err != nil {
			return nil, err
		}
		out["return"] = preds
	}
	return out, nil
}

func wrap(preds [][]string) []TypePrediction {
	out := make([]TypePrediction, 0, len(preds))
	for _, p := range preds {
		out = append(out, TypePrediction{Tokens: p, Text: LabelString(p)})
	}
	return out
}
