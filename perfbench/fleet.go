package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"falcondown/internal/campaign"
	"falcondown/internal/cluster"
	"falcondown/internal/core"
	"falcondown/internal/falcon"
	"falcondown/internal/ntru"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// campaign-fleet-n16: one client submits a distributed campaign to an
// in-process campaign server whose attack passes run on one in-process
// cluster worker over loopback HTTP, follows its event stream, fetches the
// result and key, and verifies the key. Campaign and fleet overhead are
// about half the op; the worker decodes the corpus per task (tracestore,
// read-heavy) and runs CPA; the attack's stages show as the campaign's
// phase events.
const (
	fleetN      = 16
	fleetTraces = 128
	fleetSigma  = 2
	// fleetVictim is the spec seed of every campaign. A spec seed fixes
	// the victim key, its noise and its acquisition stream alike, so every
	// op does the same work; the workload seed draws the message each
	// campaign forges. It is the first key seed whose 128-trace campaign
	// recovers the key: seed 1 is refused at this size (so are 4 and 5),
	// and a refused campaign would make every op a failed one.
	fleetVictim = 2
	// fleetWarmTraces sizes the warm-up campaign of setup.
	fleetWarmTraces = 64
	fleetMessage    = "perfbench fleet campaign"
	// spanHeader carries a task's client span id to the worker, linking
	// the worker's span to it.
	spanHeader = "X-Perfbench-Span"
)

type fleetInst struct {
	seed    uint64
	pub     *falcon.PublicKey
	root    string
	api     string
	srv     *campaign.Server
	servers []*http.Server
	wg      sync.WaitGroup
	cli     *http.Client

	// Guarded by mu: the server, coordinator and worker goroutines
	// report into the op that is running.
	mu      sync.Mutex
	tr      *tracer
	passID  int
	dist    *timedDistributor
	started time.Time // when the server built the op's distributor
	counts  map[string]float64
}

func setupFleet(cfg config, dir string) (instance, error) {
	// The campaign server derives its victim from the spec seed the same
	// way; the client knows the victim's public key in advance.
	_, pub, err := falcon.GenerateKey(fleetN, rng.New(fleetVictim))
	if err != nil {
		return nil, err
	}
	f := &fleetInst{seed: cfg.seed, pub: pub, root: filepath.Join(dir, "store"), cli: &http.Client{Timeout: 2 * time.Minute}}
	if err := os.MkdirAll(f.root, 0o755); err != nil {
		return nil, err
	}
	workerURL, err := f.serve(f.workerHandler(cluster.NewWorker(f.root).Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	transport := &timedTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), f: f}
	srv, err := campaign.Open(f.root, campaign.Config{
		Slots: 1,
		Distributor: func(corpus string, _ *tracestore.Corpus) core.Distributor {
			d := &timedDistributor{c: cluster.New(cluster.Options{
				Workers: []string{workerURL}, Corpus: corpus, Transport: transport}), f: f}
			f.mu.Lock()
			f.dist, f.started = d, time.Now()
			f.mu.Unlock()
			return d
		},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = srv
	srv.Start()
	if f.api, err = f.serve(srv.Handler()); err != nil {
		f.close()
		return nil, err
	}
	for _, u := range []string{f.api, workerURL} {
		if err := f.get(u+"/healthz", nil); err != nil {
			f.close()
			return nil, err
		}
	}
	// One small campaign through every layer, so connections, the
	// worker's corpus cache and the heap are warm before the first op.
	warm := campaign.Spec{N: fleetN, Traces: fleetWarmTraces, Noise: fleetSigma, Seed: fleetVictim,
		Workers: 1, Distributed: true}
	if _, _, _, err := f.submit(warm); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// submit posts a campaign and follows it to its terminal event. It
// returns the campaign's id and terminal status, and the phase boundaries
// as the client saw them, starting at the submission.
func (f *fleetInst) submit(spec campaign.Spec) (string, string, []mark, error) {
	marks := []mark{{"", time.Now()}}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", "", nil, err
	}
	var snap campaign.Snapshot
	if err := f.post(f.api+"/campaigns", body, &snap); err != nil {
		return "", "", nil, err
	}
	marks = append(marks, mark{phaseSubmit, time.Now()})
	status, err := f.follow(snap.ID, &marks)
	return snap.ID, status, marks, err
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (f *fleetInst) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleetInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range f.servers {
		errs = append(errs, hs.Shutdown(ctx))
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Stop(ctx))
	}
	f.wg.Wait()
	f.cli.CloseIdleConnections()
	return errors.Join(errs...)
}

func (f *fleetInst) tracer() *tracer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr
}

func (f *fleetInst) count(name string, v float64) {
	f.mu.Lock()
	f.counts[name] += v
	f.mu.Unlock()
}

// The spans of a campaign op. Start, the attack phases, tail and fetch form
// a chain from the POST to the fetched key, each span running from the
// previous boundary to its own; submit, the POST's round trip, overlaps
// start.
const (
	phaseSubmit = "campaign.submit"
	// phaseStart ends when the server builds the campaign's distributor:
	// admission, queueing, acquisition and corpus open are done and the
	// attack begins. The server's own time is exact; with one P the
	// client receives the acquisition events in one batch, too late to
	// split those steps.
	phaseStart = "campaign.start"
	phaseTail  = "campaign.tail"  // last attack phase until done or failed
	phaseFetch = "campaign.fetch" // result and key fetched
)

func (f *fleetInst) op(i int, tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	f.mu.Lock()
	f.tr, f.counts, f.dist, f.started = tr, map[string]float64{}, nil, time.Time{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.tr = nil
		f.mu.Unlock()
	}()

	msgSeed := f.msgSeed(i)
	id, status, marks, err := f.submit(f.spec(i))
	if err != nil {
		return out, err
	}

	var res campaign.Result
	var keyJSON []byte
	var snap campaign.Snapshot
	switch status {
	case campaign.StatusDone:
		if err := f.get(f.api+"/campaigns/"+id+"/result", &res); err != nil {
			return out, err
		}
		if err := f.get(f.api+"/campaigns/"+id+"/key", &keyJSON); err != nil {
			return out, err
		}
	case campaign.StatusFailed:
		if err := f.get(f.api+"/campaigns/"+id, &snap); err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("campaign %s ended %q", id, status)
	}
	marks = append(marks, mark{phaseFetch, time.Now()})

	f.mu.Lock()
	d, started := f.dist, f.started
	for name, v := range f.counts {
		out.layer[name] = v
	}
	f.mu.Unlock()
	if d != nil {
		rep := d.c.Report()
		out.layer["cluster.retries"] = float64(rep.Retries)
		out.layer["cluster.local_tasks"] = float64(rep.Local)
		out.layer["cluster.hedges"] = float64(rep.Hedges)
	}
	bytes, err := corpusBytes(filepath.Join(f.root, id))
	if err != nil {
		return out, err
	}
	out.layer["tracestore.bytes_written"] = float64(bytes)
	if tr != nil {
		root := tr.root()
		// The POST answer is no boundary of the chain: with one P the
		// runner can reach the attack before the client reads it.
		tr.add(root, phaseSubmit, marks[0].at, marks[1].at)
		out.layer[phaseSubmit+"_s"] = marks[1].at.Sub(marks[0].at).Seconds()
		chain := append([]mark{marks[0]}, marks[2:]...)
		if !started.IsZero() {
			chain = slices.Insert(chain, 1, mark{phaseStart, started})
		}
		for j := 1; j < len(chain); j++ {
			tr.add(root, chain[j].phase, chain[j-1].at, chain[j].at)
			out.layer[chain[j].phase+"_s"] += chain[j].at.Sub(chain[j-1].at).Seconds()
		}
		out.layer["cluster.wire_overhead_s"] = out.layer["cluster.task_rtt_s"] - out.layer["cluster.worker_busy_s"]
	}

	if status == campaign.StatusFailed {
		if !strings.Contains(snap.Error, core.ErrImplausibleKey.Error()) {
			return out, fmt.Errorf("campaign %s failed: %s", id, snap.Error)
		}
		out.refused = true
		return out, nil
	}
	out.layer["core.corrected_values"] = float64(len(res.Corrected))
	if err := checkCampaign(res, keyJSON, f.pub, msgSeed); err != nil {
		return out, err
	}
	out.verified = true
	return out, nil
}

// msgSeed is op i's draw from the workload seed: the message its campaign
// forges and the one the benchmark signs with the served key.
func (f *fleetInst) msgSeed(i int) uint64 { return rng.DeriveSeed(f.seed, uint64(i)) }

// spec is op i's campaign: the same victim, noise and acquisition in every
// op, and a message drawn from the seed.
func (f *fleetInst) spec(i int) campaign.Spec {
	return campaign.Spec{N: fleetN, Traces: fleetTraces, Noise: fleetSigma, Seed: fleetVictim,
		Workers: 1, Distributed: true, Message: fmt.Sprintf("%s %d", fleetMessage, f.msgSeed(i))}
}

type mark struct {
	phase string
	at    time.Time
}

// follow long-polls the campaign's events, as campaignctl watch does,
// marking each attack phase's end as its event arrives, until the
// campaign's terminal event; it returns the terminal status.
func (f *fleetInst) follow(id string, marks *[]mark) (string, error) {
	var body struct {
		Events []campaign.Event `json:"events"`
		Next   int              `json:"next"`
		Status string           `json:"status"`
	}
	for after := 0; ; after = body.Next {
		if err := f.get(fmt.Sprintf("%s/campaigns/%s/events?after=%d&wait=60", f.api, id, after), &body); err != nil {
			return "", err
		}
		for _, ev := range body.Events {
			switch ev.Type {
			case campaign.EventPhase:
				*marks = append(*marks, mark{"campaign.phase." + ev.Phase, time.Now()})
			case campaign.EventDone, campaign.EventFailed, campaign.EventCancelled:
				*marks = append(*marks, mark{phaseTail, time.Now()})
				return ev.Type, nil
			}
		}
	}
}

func (f *fleetInst) post(url string, body []byte, into any) error {
	resp, err := f.cli.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// get fetches url; into is nil (discard), *[]byte (raw body) or a JSON
// target.
func (f *fleetInst) get(url string, into any) error {
	resp, err := f.cli.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, data)
	}
	switch v := into.(type) {
	case nil:
		return nil
	case *[]byte:
		*v = data
		return nil
	default:
		return json.Unmarshal(data, into)
	}
}

// checkCampaign verifies a finished campaign: the served key must rebuild
// into a private key whose public key is the victim's and whose signature
// verifies, and the campaign's own forgery must verify too.
func checkCampaign(res campaign.Result, keyJSON []byte, pub *falcon.PublicKey, seed uint64) error {
	var key struct {
		F []int16 `json:"f"`
		G []int16 `json:"g"`
	}
	if err := json.Unmarshal(keyJSON, &key); err != nil {
		return fmt.Errorf("%w: key: %v", errWrongOutput, err)
	}
	if !slices.Equal(key.F, res.F) || !slices.Equal(key.G, res.G) {
		return fmt.Errorf("%w: key endpoint and result disagree", errWrongOutput)
	}
	F, G, err := ntru.Solve(key.F, key.G)
	if err != nil {
		return fmt.Errorf("%w: served key does not solve the NTRU equation: %v", errWrongOutput, err)
	}
	priv, err := falcon.NewPrivateKey(fleetN, key.F, key.G, F, G)
	if err != nil {
		return fmt.Errorf("%w: served key: %v", errWrongOutput, err)
	}
	if err := checkKey(priv, pub, seed); err != nil {
		return err
	}
	logn := bits.Len(uint(fleetN)) - 1
	sig, err := falcon.DecodeSignature(res.Signature, logn, pub.Params.SigByteLen)
	if err != nil {
		return fmt.Errorf("%w: campaign forgery: %v", errWrongOutput, err)
	}
	if err := pub.Verify([]byte(res.Message), sig); err != nil {
		return fmt.Errorf("%w: campaign forgery does not verify: %v", errWrongOutput, err)
	}
	return nil
}

// checkKey accepts a recovered key only if it reproduces the victim's
// public key and a signature made with it verifies under the victim's key.
func checkKey(priv *falcon.PrivateKey, pub *falcon.PublicKey, msgSeed uint64) error {
	if priv == nil {
		return fmt.Errorf("%w: no key and no error", errWrongOutput)
	}
	if !slices.Equal(priv.Public().H, pub.H) {
		return fmt.Errorf("%w: recovered key's public key differs from the victim's", errWrongOutput)
	}
	msg := []byte(fmt.Sprintf("perfbench verification message %d", msgSeed))
	sig, err := priv.Sign(msg, rng.New(msgSeed))
	if err != nil {
		return fmt.Errorf("%w: recovered key cannot sign: %v", errWrongOutput, err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		return fmt.Errorf("%w: signature by the recovered key: %v", errWrongOutput, err)
	}
	return nil
}

// corpusBytes sums the sizes of a campaign's corpus shard files.
func corpusBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.fdt2"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// timedDistributor wraps the cluster coordinator to count and time every
// distributed pass.
type timedDistributor struct {
	c *cluster.Coordinator
	f *fleetInst
}

func (d *timedDistributor) RunPass(p *core.DistPass) error {
	tr := d.f.tracer()
	if tr == nil {
		return d.c.RunPass(p)
	}
	d.f.count("cluster.passes", 1)
	id := tr.newID()
	d.f.mu.Lock()
	d.f.passID = id
	d.f.mu.Unlock()
	start := time.Now()
	err := d.c.RunPass(p)
	tr.record(id, tr.root(), "cluster.pass", start, time.Now())
	return err
}

// Summary keeps the campaign's fleet event: the server logs it for a
// distributor that has one.
func (d *timedDistributor) Summary() string { return d.c.Summary() }

// timedTransport counts every task request the coordinator sends and, when
// tracing, times its round trip and tags it with a span id the worker
// handler links to.
type timedTransport struct {
	inner http.RoundTripper
	f     *fleetInst
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.f.tracer()
	if tr == nil || !strings.HasSuffix(req.URL.Path, "/task") {
		return t.inner.RoundTrip(req)
	}
	t.f.count("cluster.tasks", 1)
	t.f.count("cluster.req_bytes", float64(req.ContentLength))
	id := tr.newID()
	t.f.mu.Lock()
	parent := t.f.passID
	t.f.mu.Unlock()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		tr.record(id, parent, "cluster.task", start, time.Now())
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		end := time.Now()
		tr.record(id, parent, "cluster.task", start, end)
		t.f.count("cluster.task_rtt_s", end.Sub(start).Seconds())
		t.f.count("cluster.resp_bytes", float64(n))
	}}
	return resp, nil
}

// countingBody counts response bytes and reports once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// workerHandler times the worker's task handling under the span id the
// coordinator's request carries.
func (f *fleetInst) workerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tracer()
		if tr == nil || r.URL.Path != "/task" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		tr.add(parent, "cluster.worker", start, end)
		f.count("cluster.worker_busy_s", end.Sub(start).Seconds())
	})
}
