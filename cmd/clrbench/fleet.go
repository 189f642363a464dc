package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
	"repro/internal/store"
)

// fleetConfig sizes the open-loop fleet workload.
type fleetConfig struct {
	// rate is the mean submissions per second. Every submission, hit or
	// miss, pays a service.Build at the gateway's edge (about 0.1 s on a
	// 2-vCPU x86 VM), and one connection carries them in turn, so 3/s
	// keeps that admission path about 30% busy.
	rate        float64
	repeatAfter time.Duration // a repeat re-sends a spec first sent at least this long before
	samples     int           // new specs re-run in process for the digest check and hv_share
	// cacheCap is the gateway's LRU capacity. It is far below the shipped
	// 256 so that, within one run, older repeats fall out of the LRU and
	// are answered by the WAL store: both read paths get traffic.
	cacheCap int
	agents   int
}

var defaultFleet = fleetConfig{rate: 3, repeatAfter: 5 * time.Second, samples: 16, cacheCap: 24, agents: 2}

const (
	benchTenantKey = "clrbench-key"
	benchWorkerTok = "clrbench-worker"
)

// arrival is one scheduled submission.
type arrival struct {
	offset time.Duration
	spec   *service.JobSpec // shared with the first send for repeats
	hash   string
	body   []byte
	repeat bool
}

// fleetSchedule is the whole open-loop input of one run, a pure function
// of the seed and the run length.
type fleetSchedule struct {
	arrivals []arrival
	sample   []int // indices of new arrivals re-run in process
	warmup   service.JobSpec
}

// buildFleetSchedule draws the submissions. The window is cut into
// rate×seconds equal slots and each slot gets one arrival at a uniformly
// drawn instant: every gap is random (0 to two mean gaps) and the offered
// load is the same for every seed. Under Poisson arrivals a seed's chance
// clusters decide the latency tail: with about 45 new jobs a run, done p90
// moved from 256 to 427 ms between seeds. Every third
// arrival repeats a spec first sent at least repeatAfter earlier, when one
// exists; the rest are new proposed synthetic specs of 8 to 24 tasks (each
// size once per 17 new specs) at pop 24 / gens 10 with fresh seeds.
func buildFleetSchedule(seed int64, seconds float64, fc fleetConfig) (*fleetSchedule, error) {
	rng := rand.New(rand.NewSource(int64(mix(seed, 0xf1ee7))))
	n := max(1, int(math.Round(fc.rate*seconds)))
	slot := seconds / float64(n)
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration((float64(i) + rng.Float64()) * slot * float64(time.Second))
	}

	used := make(map[int64]bool)
	freshSeed := func() int64 {
		for {
			if s := rng.Int63n(1<<31-1) + 1; !used[s] {
				used[s] = true
				return s
			}
		}
	}
	var sizes []int
	newSpec := func() (*service.JobSpec, error) {
		if len(sizes) == 0 {
			for _, p := range rng.Perm(17) {
				sizes = append(sizes, 8+p)
			}
		}
		s := &service.JobSpec{App: "synthetic", Tasks: sizes[0], Method: "proposed", Pop: 24, Gens: 10, Seed: freshSeed()}
		sizes = sizes[1:]
		return s, s.Normalize()
	}

	sch := &fleetSchedule{arrivals: make([]arrival, 0, n)}
	var news []int
	for k, off := range offsets {
		if k%3 == 2 {
			eligible := sort.Search(len(news), func(i int) bool {
				return sch.arrivals[news[i]].offset > off-fc.repeatAfter
			})
			if eligible > 0 {
				a := sch.arrivals[news[rng.Intn(eligible)]]
				a.offset, a.repeat = off, true
				sch.arrivals = append(sch.arrivals, a)
				continue
			}
		}
		spec, err := newSpec()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		news = append(news, len(sch.arrivals))
		sch.arrivals = append(sch.arrivals, arrival{offset: off, spec: spec, hash: spec.Hash(), body: body})
	}
	for _, i := range rng.Perm(len(news))[:min(fc.samples, len(news))] {
		sch.sample = append(sch.sample, news[i])
	}
	sort.Ints(sch.sample)
	w, err := newSpec()
	if err != nil {
		return nil, err
	}
	sch.warmup = *w
	return sch, nil
}

// fleet is an in-process gateway with a durable store and its agents.
type fleet struct {
	url    string
	dir    string
	st     *store.Store
	gw     *gateway.Gateway
	hs     *http.Server
	agents []*gateway.Agent
	cancel context.CancelFunc
	wg     sync.WaitGroup // the HTTP server and the agents' run loops
	// submit and wait are the client's two connections: one goroutine
	// submits, another long-polls /wait.
	submit, wait *http.Client
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// startFleet brings up the gateway on a loopback port, with a WAL store
// under workDir using the shipped fsync=always policy, and its agents.
func startFleet(workDir string, fc fleetConfig) (*fleet, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, submit: oneConnClient(), wait: oneConnClient()}
	if f.st, err = store.Open(dir, store.Options{Sync: store.SyncAlways}); err != nil {
		f.stop()
		return nil, err
	}
	f.gw, err = gateway.New(gateway.Config{
		Tenants:     []gateway.TenantConfig{{Name: "clrbench", Key: benchTenantKey, MaxActive: 1 << 20}},
		WorkerToken: benchWorkerTok,
		CacheCap:    fc.cacheCap,
		Store:       f.st,
		ProbeEvery:  -1,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: f.gw}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < fc.agents; i++ {
		a, err := gateway.NewAgent(gateway.AgentConfig{
			Gateway: f.url, Token: benchWorkerTok, Name: fmt.Sprintf("w%d", i), PollTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.agents = append(f.agents, a)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			a.Run(ctx)
		}()
	}
	return f, nil
}

// stop shuts everything down, waits for every goroutine it started, and
// removes the store directory.
func (f *fleet) stop() {
	if f.cancel != nil {
		f.cancel()
	}
	for _, a := range f.agents {
		a.Stop()
	}
	f.submit.CloseIdleConnections()
	f.wait.CloseIdleConnections()
	if f.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.hs.Shutdown(ctx) // a timeout leaves only loopback connections behind
		cancel()
	}
	f.wg.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	if f.st != nil {
		_ = f.st.Close() // the directory is removed next
	}
	_ = os.RemoveAll(f.dir)
}

// post submits one spec body and decodes the job wire of a 2xx answer.
func (f *fleet) post(body []byte) (int, *service.JobWire, error) {
	req, err := http.NewRequest(http.MethodPost, f.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", benchTenantKey)
	resp, err := f.submit.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil, fmt.Errorf("POST /v1/jobs: HTTP %d", resp.StatusCode)
	}
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return resp.StatusCode, &jw, nil
}

// waitDone long-polls a job until it is terminal, for at most limit.
func (f *fleet) waitDone(id string, limit time.Duration) (*service.JobWire, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		req, err := http.NewRequest(http.MethodGet, f.url+"/v1/jobs/"+id+"/wait?timeout=30s", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-API-Key", benchTenantKey)
		resp, err := f.wait.Do(req)
		if err != nil {
			return nil, err
		}
		var jw service.JobWire
		err = json.NewDecoder(resp.Body).Decode(&jw)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET /wait: %w", err)
		}
		switch jw.State {
		case service.StateDone:
			if jw.Front == nil || jw.FinishedAt == nil || jw.StartedAt == nil {
				return nil, fmt.Errorf("job %s done without front or timestamps", id)
			}
			return &jw, nil
		case service.StateFailed, service.StateCancelled:
			return nil, fmt.Errorf("job %s ended %s: %s", id, jw.State, jw.Error)
		}
	}
	return nil, fmt.Errorf("job %s not done within %s", id, limit)
}

func (f *fleet) metrics() (gateway.MetricsWire, error) {
	var m gateway.MetricsWire
	resp, err := f.submit.Get(f.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// clockSampleSlack is the idle time the submitter needs before the next
// due time to take a refLoop sample (about 0.8 ms) without delaying it.
const clockSampleSlack = 3 * time.Millisecond

// fleetDrainLimit bounds how long the run waits for admitted jobs after
// the last submission.
const fleetDrainLimit = 60 * time.Second

// outcome is what happened to one arrival.
type outcome struct {
	status         int
	sent, answered time.Time
	late           time.Duration
	resp           *service.JobWire // the POST answer
	final          *service.JobWire // the finished job, for 202 answers
	waited         time.Time
	err, waitErr   error
}

// runFleet runs the open-loop fleet workload.
func runFleet(seed int64, cfg runConfig, fc fleetConfig, rep *Report) error {
	tr := cfg.tracer
	// Set-up is schedule generation, fleet start-up and one warm-up job
	// through the fleet; all but the last fleet are torn down again.
	var tm timings
	var fl *fleet
	var sch *fleetSchedule
	for i := 0; i < cfg.setups; i++ {
		if fl != nil {
			fl.stop()
		}
		t0, s0 := time.Now(), stealNow()
		var err error
		if sch, err = buildFleetSchedule(seed, cfg.seconds, fc); err != nil {
			return err
		}
		if fl, err = startFleet(cfg.workDir, fc); err != nil {
			return err
		}
		body, err := json.Marshal(&sch.warmup)
		if err == nil {
			var jw *service.JobWire
			if _, jw, err = fl.post(body); err == nil {
				_, err = fl.waitDone(jw.ID, fleetDrainLimit)
			}
		}
		if err != nil {
			fl.stop()
			return fmt.Errorf("warm-up job: %w", err)
		}
		wall := time.Since(t0)
		tm.setupRaw = append(tm.setupRaw, wall.Seconds())
		tm.setupSteady = append(tm.setupSteady, steady(wall, stealNow()-s0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			fl.stop()
		}
	}()

	before, err := fl.metrics()
	if err != nil {
		return err
	}
	// The clock is sampled once before the first submission and then by
	// the submitter whenever it has a few idle milliseconds before the next
	// due time; samples from before and after the run alone would miss the
	// clock changes within it.
	if err := tm.sampleClock(); err != nil {
		return err
	}
	steal := startStealSampler()
	defer steal.Stop()
	cBefore := readCounters()
	outs := make([]outcome, len(sch.arrivals))
	type pending struct {
		k  int
		id string
	}
	// Sized to the number of sends, so the submitter never blocks on the
	// waiter and stays on schedule.
	waitQ := make(chan pending, len(sch.arrivals))
	var waiter sync.WaitGroup
	waiter.Add(1)
	go func() {
		defer waiter.Done()
		for p := range waitQ {
			o := &outs[p.k]
			o.final, o.waitErr = fl.waitDone(p.id, fleetDrainLimit)
			o.waited = time.Now()
		}
	}()
	drain := sync.OnceFunc(func() {
		close(waitQ)
		waiter.Wait()
	})
	defer drain() // on an early return, before the fleet stops

	start := time.Now()
	prev := start
	for k := range sch.arrivals {
		a := &sch.arrivals[k]
		due := start.Add(a.offset)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &outs[k]
		o.sent = time.Now()
		// Generator lateness counts only the generator's own delay: the
		// wait for the previous answer on the single submit connection is
		// part of the system's latency, measured from the due time.
		o.late = o.sent.Sub(later(due, prev))
		o.status, o.resp, o.err = fl.post(a.body)
		o.answered = time.Now()
		prev = o.answered
		if o.err == nil && o.status == http.StatusAccepted {
			waitQ <- pending{k, o.resp.ID}
		}
		if k+1 < len(sch.arrivals) && time.Until(start.Add(sch.arrivals[k+1].offset)) > clockSampleSlack {
			if err := tm.sampleClock(); err != nil {
				return err
			}
		}
	}
	windowEnd, err := fl.metrics()
	if err != nil {
		return err
	}
	drain()
	after, err := fl.metrics()
	if err != nil {
		return err
	}
	cAfter := readCounters()
	steal.Stop()
	fl.stop()
	stopped = true

	var acc layerAcc
	acc.cnt.add(cBefore, cAfter)
	acc.gateway = gatewayCounts{
		cacheHits:    after.Dedup.CacheHits - before.Dedup.CacheHits,
		storeHits:    after.Dedup.StoreHits - before.Dedup.StoreHits,
		attach:       after.Dedup.InflightAttach - before.Dedup.InflightAttach,
		misses:       after.Dedup.Misses - before.Dedup.Misses,
		leaseGrants:  after.Leases.Granted - before.Leases.Granted,
		leaseExpired: after.Leases.Expired - before.Leases.Expired,
		backlog:      int64(windowEnd.Queue.High + windowEnd.Queue.Normal + windowEnd.Queue.Low),
	}
	if after.Store != nil && before.Store != nil {
		acc.gateway.storeAppends = after.Store.Appends - before.Store.Appends
		acc.gateway.storeSyncs = after.Store.Syncs - before.Store.Syncs
	}

	digests := fleetResults(sch, outs, start, steal, &tm, rep, tr)
	tm.publish(rep, true)

	// Re-run sampled new specs in process: their fronts must match the
	// fleet's bit for bit. The replays also give hv_share and, in a traced
	// run, the job-internal layer metrics the agents cannot expose.
	var q scores
	replayAcc := layerAcc{}
	for _, k := range sch.sample {
		a := &sch.arrivals[k]
		trace := int64(k + 1)
		j, err := runJob(a.spec, tr, trace, &replayAcc)
		if err == nil {
			if d := frontDigest(service.FrontToWire(j.front)); d != digests[a.hash] {
				err = fmt.Errorf("replay of %s: in-process front digest differs from the fleet's", a.hash)
			}
		}
		if err == nil {
			err = verifyJob(a.spec, j, tr, trace, &replayAcc)
		}
		if err == nil {
			err = q.add(a.spec, j)
		}
		rep.record(err)
	}
	q.publish(rep)
	if tr != nil {
		// Job-internal metrics come from the replays; the counter deltas
		// and gateway counts cover the fleet's own timed region.
		replayAcc.cnt, replayAcc.gateway = acc.cnt, acc.gateway
		return finishLayers(tr, &replayAcc, rep)
	}
	return nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// fleetResults checks every arrival's outcome, adds the end-to-end
// latencies to tm, records the latency breakdown and, in a traced run, the
// request spans. A new job's done latency runs from its due time to its
// finished_at, a hit's from its due time to the answer; jobs_per_s counts
// new jobs per second of agent execution (started_at to finished_at). It
// returns the front digest of each spec's first (miss) answer.
func fleetResults(sch *fleetSchedule, outs []outcome, start time.Time, steal *stealSampler, tm *timings, rep *Report, tr *tracer) map[string]string {
	digests := make(map[string]string)
	seenJob := make(map[string]bool)
	var admitMS, queueMS, execMS, lateMS []float64
	errs := make([]error, len(outs))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	span := func(a, b time.Time) (raw, st time.Duration) {
		raw = b.Sub(a)
		return raw, steady(raw, steal.stolen(a, b))
	}
	// The first pass collects each spec's first answer, so the second can
	// check every repeat against it.
	for k, o := range outs {
		a := &sch.arrivals[k]
		due := start.Add(a.offset)
		lateMS = append(lateMS, ms(o.late))
		switch {
		case o.err != nil:
			errs[k] = o.err
		case o.status == http.StatusOK:
			if o.resp.State != service.StateDone || o.resp.Front == nil {
				errs[k] = fmt.Errorf("HTTP 200 for %s without a finished front", a.hash)
				continue
			}
			raw, st := span(due, o.answered)
			tm.hitRaw = append(tm.hitRaw, ms(raw))
			tm.hitSteady = append(tm.hitSteady, ms(st))
		case o.waitErr != nil:
			errs[k] = o.waitErr
		case seenJob[o.resp.ID]:
			// Attached to an identical in-flight job: checked below.
		default:
			seenJob[o.resp.ID] = true
			fin := o.final
			raw, st := span(due, *fin.FinishedAt)
			tm.doneRaw = append(tm.doneRaw, ms(raw))
			tm.doneSteady = append(tm.doneSteady, ms(st))
			raw, st = span(*fin.StartedAt, *fin.FinishedAt)
			tm.jobs++
			tm.busyRaw += raw
			tm.busySteady += st
			execMS = append(execMS, ms(raw))
			queueMS = append(queueMS, ms(fin.StartedAt.Sub(fin.SubmittedAt)))
			digests[a.hash] = frontDigest(fin.Front)
		}
		if o.status == http.StatusAccepted {
			admitMS = append(admitMS, ms(o.answered.Sub(o.sent)))
		}
	}
	for k, o := range outs {
		a := &sch.arrivals[k]
		if errs[k] == nil && a.repeat {
			front := o.resp.Front
			if o.status == http.StatusAccepted {
				front = o.final.Front
			}
			if want, ok := digests[a.hash]; !ok || frontDigest(front) != want {
				errs[k] = fmt.Errorf("repeat of %s: front digest differs from its first answer", a.hash)
			}
		}
		rep.record(errs[k])
		if tr != nil {
			trace := int64(k + 1)
			due := tr.at(start.Add(a.offset))
			end := tr.at(o.answered)
			if o.status == http.StatusAccepted && !o.waited.IsZero() {
				end = tr.at(o.waited)
			}
			root := tr.add("request", 0, trace, due, end)
			tr.add("gateway.admit", root, trace, tr.at(o.sent), tr.at(o.answered))
			if o.status == http.StatusAccepted && !o.waited.IsZero() {
				tr.add("gateway.wait", root, trace, tr.at(o.answered), tr.at(o.waited))
			}
		}
	}
	rep.set("gateway.admit_ms_p50", percentile(admitMS, 50), "ms")
	rep.set("gateway.admit_ms_p95", percentile(admitMS, 95), "ms")
	rep.set("gateway.queue_wait_ms_p50", percentile(queueMS, 50), "ms")
	rep.set("gateway.queue_wait_ms_p95", percentile(queueMS, 95), "ms")
	rep.set("service.exec_ms_p50", percentile(execMS, 50), "ms")
	rep.set("service.exec_ms_p95", percentile(execMS, 95), "ms")
	rep.set("loadgen.late_ms_p99", percentile(lateMS, 99), "ms")
	rep.Samples["hit_ms"] = tm.hitRaw
	rep.Samples["exec_ms"] = execMS
	rep.Samples["admit_ms"] = admitMS
	return digests
}
