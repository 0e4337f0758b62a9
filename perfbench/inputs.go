package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/wasm"
)

// inputSeedBase offsets every workload seed onto corpus seeds far from
// the reference model's training seed, so no workload input (and no
// shared library function pool) comes from the corpus the model was
// trained on.
const inputSeedBase = 1_000_003

// input is one generated binary plus what the manifest needs from it.
type input struct {
	Name  string
	Bin   []byte
	Funcs int
	Elems int        // parameters plus return values of defined functions
	Keys  [][32]byte // one content key per defined function
}

// genInputs compiles corpus packages at the workload seed until n
// distinct binaries exist, with DWARF when debug is set. Exact duplicate
// binaries are skipped, so every binary is new to whatever has seen the
// ones before it.
func genInputs(seed int64, n int, debug bool) ([]input, error) {
	return generate(seed, debug, true, func(_, bins int) bool { return bins < n })
}

// genPackages compiles every file of the first n corpus packages at the
// workload seed, duplicates included, as the dataset pipeline sees them.
func genPackages(seed int64, n int) ([]input, error) {
	return generate(seed, true, false, func(pkgs, _ int) bool { return pkgs < n })
}

// generate compiles corpus packages in index order while more(packages
// done, binaries kept) holds, checked before each package and each file.
func generate(seed int64, debug, distinct bool, more func(pkgs, bins int) bool) ([]input, error) {
	opts := inputCorpus(seed)
	if opts.Seed == core.DefaultConfig().Corpus.Seed {
		return nil, fmt.Errorf("seed %d maps onto the model's training corpus", seed)
	}
	lib := corpus.NewLibrary(opts.Seed)
	seen := map[[32]byte]bool{}
	var out []input
	for idx := 0; more(idx, len(out)); idx++ {
		pkg := corpus.GeneratePackage(opts, lib, idx)
		for _, f := range pkg.Files {
			if !more(idx, len(out)) {
				break
			}
			obj, err := cc.Compile(f.Source, cc.Options{FileName: f.Name, Debug: debug})
			if err != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", pkg.Name, f.Name, err)
			}
			sum := sha256.Sum256(obj.Binary)
			if distinct && seen[sum] {
				continue
			}
			seen[sum] = true
			in, err := describe(pkg.Name+"/"+f.Name+".wasm", obj.Binary)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// inputCorpus returns the corpus options of a workload seed.
func inputCorpus(seed int64) corpus.Options {
	opts := corpus.DefaultOptions()
	opts.Seed = inputSeedBase + seed
	return opts
}

// describe decodes a binary the way the server does (stripped) and
// counts its functions, signature elements and function content keys.
func describe(name string, bin []byte) (input, error) {
	m, err := core.DecodeStripped(bin)
	if err != nil {
		return input{}, fmt.Errorf("decode %s: %w", name, err)
	}
	in := input{Name: name, Bin: bin, Funcs: len(m.Funcs)}
	for i := range m.Funcs {
		fn := &m.Funcs[i]
		if int(fn.TypeIdx) < len(m.Types) {
			sig := m.Types[fn.TypeIdx]
			in.Elems += len(sig.Params)
			if len(sig.Results) == 1 {
				in.Elems++
			}
		}
		in.Keys = append(in.Keys, funcKey(m, i))
	}
	return in, nil
}

// funcKey hashes what the server's prediction cache keys a function on,
// field for field as the server's function hash does: the type index
// with a validity marker, the signature, the locals and the instruction
// stream. Two binaries that share a function (statically linked library
// code at the same type index) share its key.
func funcKey(m *wasm.Module, i int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fn := &m.Funcs[i]
	put(uint64(fn.TypeIdx))
	if int(fn.TypeIdx) < len(m.Types) {
		put(1)
		sig := m.Types[fn.TypeIdx]
		put(uint64(len(sig.Params)))
		for _, p := range sig.Params {
			put(uint64(p))
		}
		put(uint64(len(sig.Results)))
		for _, r := range sig.Results {
			put(uint64(r))
		}
	} else {
		put(0)
	}
	put(uint64(len(fn.Locals)))
	for _, d := range fn.Locals {
		put(uint64(d.Count))
		put(uint64(d.Type))
	}
	put(uint64(len(fn.Body)))
	for _, in := range fn.Body {
		put(uint64(in.Op))
		put(uint64(in.Imm))
		put(uint64(in.Imm2))
		put(uint64(math.Float32bits(in.F32)))
		put(math.Float64bits(in.F64))
		put(uint64(len(in.Table)))
		for _, t := range in.Table {
			put(uint64(t))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// manifest describes a set of inputs: sizes, how much work they share
// through repeated function bodies, and a digest that identifies them.
func manifest(ins []input) map[string]any {
	var funcs, elems, bytes int
	binsWithKey := map[[32]byte]int{}
	d := sha256.New()
	for _, in := range ins {
		funcs += in.Funcs
		elems += in.Elems
		bytes += len(in.Bin)
		d.Write([]byte(in.Name))
		d.Write(in.Bin)
		seen := map[[32]byte]bool{}
		for _, k := range in.Keys {
			if !seen[k] {
				seen[k] = true
				binsWithKey[k]++
			}
		}
	}
	repeated := 0
	for _, in := range ins {
		for _, k := range in.Keys {
			if binsWithKey[k] > 1 {
				repeated++
			}
		}
	}
	return map[string]any{
		"binaries":  len(ins),
		"functions": funcs,
		"elements":  elems,
		"bytes":     bytes,
		// Share of functions whose body also occurs in another binary of
		// the set (library code), which is what the server's
		// function-content cache can reuse across uploads.
		"repeated_function_share":  ratio(float64(repeated), float64(funcs)),
		"distinct_function_bodies": len(binsWithKey),
		"input_digest":             hex.EncodeToString(d.Sum(nil)),
	}
}
