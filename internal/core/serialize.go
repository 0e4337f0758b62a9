package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bpe"
	"repro/internal/seq2seq"
)

// trainedState is the serialized form of a trained task model.
type trainedState struct {
	Task  Task
	Model []byte
	BPE   []byte // empty when subword tokenization was disabled
}

// Save writes the trained task (model + subword tokenizer) to w.
func (tr *Trained) Save(w io.Writer) error {
	var st trainedState
	st.Task = tr.Task
	var mb bytes.Buffer
	if err := tr.Model.Save(&mb); err != nil {
		return err
	}
	st.Model = mb.Bytes()
	if tr.BPE != nil {
		var bb bytes.Buffer
		if err := tr.BPE.Save(&bb); err != nil {
			return err
		}
		st.BPE = bb.Bytes()
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadTrained reads a trained task written with Save.
func LoadTrained(r io.Reader) (*Trained, error) {
	var st trainedState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load trained: %w", err)
	}
	m, err := seq2seq.Load(bytes.NewReader(st.Model))
	if err != nil {
		return nil, err
	}
	tr := &Trained{Task: st.Task, Model: m}
	if len(st.BPE) > 0 {
		if tr.BPE, err = bpe.Load(bytes.NewReader(st.BPE)); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// FingerprintPredictor returns a content hash of a predictor: the SHA-256
// of its serialized models (weights, vocabularies, tokenizers). Two
// predictors with the same fingerprint produce the same predictions, so
// the hash is a safe namespace for caches shared across model versions,
// replicas, and restarts — the serving layer keys its persistent
// prediction cache by it. Serialization is deterministic (gob over fixed
// struct shapes in registration order), so the fingerprint is stable
// across processes.
//
// Save writes float64 weights only, so the float32 weights of an
// f32-resident model (a quantized load, which has no float64 storage)
// are hashed after its Save stream. Full-precision models have no such
// tensor, so their fingerprint is exactly the hash of their Save
// stream.
func FingerprintPredictor(p *Predictor) ([32]byte, error) {
	h := sha256.New()
	var buf []byte
	for _, tr := range []*Trained{p.Param, p.Return} {
		if tr == nil {
			h.Write([]byte{0})
			continue
		}
		h.Write([]byte{1})
		if err := tr.Save(h); err != nil {
			return [32]byte{}, fmt.Errorf("core: fingerprint predictor: %w", err)
		}
		for _, v := range tr.Model.Params() {
			if len(v.W) > 0 {
				continue
			}
			buf = buf[:0]
			for _, x := range v.W32 {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
			h.Write(buf)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// predictorState pairs the two task models of a predictor.
type predictorState struct {
	Param  []byte
	Return []byte
}

// SavePredictor writes a predictor's models to a file.
func SavePredictor(p *Predictor, path string) error {
	var st predictorState
	if p.Param != nil {
		var b bytes.Buffer
		if err := p.Param.Save(&b); err != nil {
			return err
		}
		st.Param = b.Bytes()
	}
	if p.Return != nil {
		var b bytes.Buffer
		if err := p.Return.Save(&b); err != nil {
			return err
		}
		st.Return = b.Bytes()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewEncoder(f).Encode(st)
}

// LoadPredictor reads a predictor written with SavePredictor. The
// extraction options default to the paper's.
func LoadPredictor(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st predictorState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	p := &Predictor{Opts: DefaultConfig().Extract}
	if len(st.Param) > 0 {
		if p.Param, err = LoadTrained(bytes.NewReader(st.Param)); err != nil {
			return nil, err
		}
	}
	if len(st.Return) > 0 {
		if p.Return, err = LoadTrained(bytes.NewReader(st.Return)); err != nil {
			return nil, err
		}
	}
	return p, nil
}
