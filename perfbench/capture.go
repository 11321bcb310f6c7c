package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// capture-n64: acquire a corpus into a sharded Writer, then open it, read
// every observation once and recompute its manifest. This is the
// write-then-read-once use of the storage layers: emleak (the fpr
// emulation) and tracestore (encode, CRC-32C, SHA-256, decode); no CPA.
const (
	captureN        = 64
	captureTraces   = 10000
	captureSigma    = 2
	captureShardObs = 4096
)

type captureInst struct {
	dev  *emleak.Device
	seed uint64
	dir  string
}

// captureWarmTraces sizes the warm-up capture of setup, which lets the
// page cache, the heap and the writer's buffers reach their steady state
// before the first timed op.
const captureWarmTraces = captureTraces / 10

func setupCapture(cfg config, dir string) (instance, error) {
	s := rng.DeriveSeed(cfg.seed, 0)
	priv, _, err := falcon.GenerateKey(captureN, rng.New(s))
	if err != nil {
		return nil, err
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: captureSigma}, rng.DeriveSeed(s, 1))
	c := &captureInst{dev: dev, seed: s, dir: dir}
	if _, err := c.capture("warm-up", rng.DeriveSeed(s, 2), captureWarmTraces, nil); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *captureInst) close() error { return nil }

// Every op acquires with a fresh seed, so no two ops write the same corpus.
func (c *captureInst) op(i int, tr *tracer) (outcome, error) {
	return c.capture(fmt.Sprintf("op-%d", i), rng.DeriveSeed(c.seed, uint64(3+i)), captureTraces, tr)
}

// capture acquires count observations from seed into a corpus in the named
// directory, reads it back and checks it, then deletes it.
func (c *captureInst) capture(name string, seed uint64, count int, tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	dir := filepath.Join(c.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	w, err := tracestore.NewWriter(filepath.Join(dir, "traces.fdt2"), captureN,
		tracestore.Options{ShardObs: captureShardObs})
	if err != nil {
		return out, err
	}
	app := &summingAppender{w: w, timed: tr != nil}
	if err := tracestore.Acquire(context.Background(), c.dev, seed, count, app,
		tracestore.AcquireOptions{Workers: 1}); err != nil {
		w.Close()
		return out, err
	}
	t1 := time.Now()
	if err := w.Close(); err != nil {
		return out, err
	}
	t2 := time.Now()
	written, err := w.Manifest()
	if err != nil {
		return out, err
	}
	corpus, err := tracestore.Open(dir)
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	var read obsSum
	it, err := corpus.Iterate()
	if err != nil {
		return out, err
	}
	for {
		o, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			it.Close()
			return out, err
		}
		read.add(o)
	}
	if err := it.Close(); err != nil {
		return out, err
	}
	t4 := time.Now()
	reread, err := corpus.Manifest()
	if err != nil {
		return out, err
	}
	t5 := time.Now()

	var bytes int64
	for _, p := range w.Paths() {
		st, err := os.Stat(p)
		if err != nil {
			return out, err
		}
		bytes += st.Size()
	}
	out.layer["tracestore.bytes_written"] = float64(bytes)
	if tr != nil {
		root := tr.root()
		tr.add(root, "capture.acquire", t0, t1)
		tr.add(root, "tracestore.close", t1, t2)
		tr.add(root, "tracestore.open", t2, t3)
		tr.add(root, "tracestore.read", t3, t4)
		tr.add(root, "tracestore.manifest", t4, t5)
		out.layer["emleak.acquire_s"] = (t1.Sub(t0) - app.appendTime).Seconds()
		out.layer["tracestore.append_s"] = app.appendTime.Seconds()
		out.layer["tracestore.close_s"] = t2.Sub(t1).Seconds()
		out.layer["tracestore.open_s"] = t3.Sub(t2).Seconds()
		out.layer["tracestore.read_s"] = t4.Sub(t3).Seconds()
		out.layer["tracestore.manifest_s"] = t5.Sub(t4).Seconds()
	}

	switch {
	case reread.Digest != written.Digest:
		return out, fmt.Errorf("%w: reopened manifest digest %s, writer's %s", errWrongOutput, reread.Digest, written.Digest)
	case read != app.sum:
		return out, fmt.Errorf("%w: decoded %d observations (checksum %x), appended %d (checksum %x)",
			errWrongOutput, read.count, read.hash, app.sum.count, app.sum.hash)
	case read.count != count:
		return out, fmt.Errorf("%w: read %d observations, acquired %d", errWrongOutput, read.count, count)
	}
	out.verified = true
	return out, nil
}

// obsSum is an order-sensitive checksum (FNV-1a over 64-bit words) of the
// known inputs and samples of a sequence of observations.
type obsSum struct {
	count int
	hash  uint64
}

func (s *obsSum) add(o emleak.Observation) {
	const prime = 1099511628211
	h := s.hash
	if s.count == 0 {
		h = 14695981039346656037
	}
	for _, z := range o.CFFT {
		h = (h ^ uint64(z.Re)) * prime
		h = (h ^ uint64(z.Im)) * prime
	}
	for _, v := range o.Trace.Samples {
		h = (h ^ math.Float64bits(v)) * prime
	}
	s.hash = h
	s.count++
}

// summingAppender checksums what Acquire appends and, when timed, how long
// the Writer spends in Append. Acquire appends from one goroutine.
type summingAppender struct {
	w          *tracestore.Writer
	timed      bool
	sum        obsSum
	appendTime time.Duration
}

func (a *summingAppender) Append(o emleak.Observation) error {
	a.sum.add(o)
	if !a.timed {
		return a.w.Append(o)
	}
	t0 := time.Now()
	err := a.w.Append(o)
	a.appendTime += time.Since(t0)
	return err
}
