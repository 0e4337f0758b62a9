package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"repro/internal/core"
)

// refModelConfig is the configuration of the reference model the
// inference workloads load: the default pipeline at a fixed corpus seed,
// trained on sc.modelPackages packages. At the full scale (30 packages,
// 2 epochs) its top predictions average about 2.6 tokens and score a
// top-1 near 0.4 on held-out binaries; smaller models degenerate to
// 1-2-token types.
func refModelConfig(sc scale, workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = sc.modelPackages
	cfg.Model.Epochs = sc.modelEpochs
	cfg.Parallelism = workers
	return cfg
}

// referenceModel returns the path of the reference model, training it
// on first use in a child process (so this process's peak memory and GC
// counters never include training). The file name carries a hash of the
// running benchmark binary, so a build from changed sources trains its
// own model rather than reusing one another build produced; training is
// deterministic, so the same sources always yield the same model.
func referenceModel(workdir, scaleName string, sc scale) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", fmt.Errorf("hash %s: %w", exe, err)
	}
	fmt.Fprintf(h, "|%d|%d", sc.modelPackages, sc.modelEpochs)
	path := filepath.Join(workdir, "model-"+hex.EncodeToString(h.Sum(nil))[:16]+".bin")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	logf("training the reference model (%d packages, %d epochs) into %s", sc.modelPackages, sc.modelEpochs, path)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), modelEnv+"="+path, scaleEnv+"="+scaleName)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("train reference model: %w", err)
	}
	return path, nil
}

// The child that trains the reference model is the benchmark binary
// (or its test binary) started with these variables set.
const (
	modelEnv = "PERFBENCH_TRAIN_MODEL"
	scaleEnv = "PERFBENCH_SCALE"
)

// trainModelChild trains the reference model and exits when this process
// is the child referenceModel started; otherwise it returns.
func trainModelChild() {
	path := os.Getenv(modelEnv)
	if path == "" {
		return
	}
	sc, ok := scales[os.Getenv(scaleEnv)]
	if !ok {
		logf("unknown scale %q", os.Getenv(scaleEnv))
		os.Exit(2)
	}
	if err := trainModel(path, sc); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// trainModel trains the reference model and saves it at path, through a
// temporary file so a concurrent or interrupted run never sees a partial
// model.
func trainModel(path string, sc scale) error {
	p, err := core.TrainPredictor(refModelConfig(sc, runtime.NumCPU()), nil)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := core.SavePredictor(p, tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// fingerprint returns a predictor's content hash in hex.
func fingerprint(p *core.Predictor) (string, error) {
	fp, err := core.FingerprintPredictor(p)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(fp[:]), nil
}
