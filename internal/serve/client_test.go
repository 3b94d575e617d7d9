package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeReplica is a hand-cranked replica endpoint, for exercising the
// client's failover and breaker logic without a backend.
type fakeReplica struct {
	mu   sync.Mutex
	fail bool // answers 500 while set
	hits int
	srv  *httptest.Server
}

func newFakeReplica(t *testing.T, archive, digest string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits++
		fail := f.fail
		f.mu.Unlock()
		if fail {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-S2S-Digest", digest)
		w.Header().Set("X-S2S-Archive", archive)
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) set(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *fakeReplica) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// TestClientJitterDeterministic: the same seed yields the same backoff
// schedule, so a failing run replays, and different seeds de-lockstep a
// fleet.
func TestClientJitterDeterministic(t *testing.T) {
	steps := [...]time.Duration{5, 10, 20, 40, 80, 160, 250, 250}
	seq := func(seed int64) []time.Duration {
		c := &Client{Seed: seed}
		out := make([]time.Duration, len(steps))
		for i, d := range steps {
			out[i] = c.jitter(d * time.Millisecond)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v != %v", i, a[i], b[i])
		}
		d := steps[i] * time.Millisecond
		if a[i] < d/2 || a[i] >= d/2+d {
			t.Fatalf("jitter %v outside the [d/2, 3d/2) envelope for d=%v", a[i], d)
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestClientBreakerTripsAndRecovers: consecutive failures against one
// replica trip its circuit, after which the client stops asking it and
// goes straight to the next replica — the circuit is name-scoped.
func TestClientBreakerTripsAndRecovers(t *testing.T) {
	broken := newFakeReplica(t, "a1", "d00d")
	broken.set(true)
	healthy := newFakeReplica(t, "a1", "beef")

	cl := &Client{
		Replicas: []string{broken.srv.URL, healthy.srv.URL}, Timeout: time.Second, Seed: 1,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	}
	for i := 0; i < 2; i++ {
		resp, err := cl.Get("/api/meta", nil)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if resp.Digest != "beef" || resp.ServedBy != healthy.srv.URL {
			t.Fatalf("Get %d served by %s (digest %q), want the healthy replica", i, resp.ServedBy, resp.Digest)
		}
	}
	if _, trips := cl.Stats(); trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}
	hitsWhileBroken := broken.count()
	if _, err := cl.Get("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if got := broken.count(); got != hitsWhileBroken {
		t.Fatalf("open circuit still sent %d requests at the broken replica", got-hitsWhileBroken)
	}
}

// TestClientContextCancel: a canceled context aborts the retry loop
// immediately, whatever state the replicas are in.
func TestClientContextCancel(t *testing.T) {
	f := newFakeReplica(t, "a1", "d00d")
	f.set(true) // every attempt fails, so the loop would retry forever

	cl := &Client{Replicas: []string{f.srv.URL}, Timeout: time.Minute, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.GetCtx(ctx, "/api/meta", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("GetCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCtx did not return after cancel")
	}
}

// TestClientRejectsForeignArchive: a replica opened on a different archive
// is never accepted. With a good replica behind it in the list it is
// skipped; with none, Get fails rather than return its body.
func TestClientRejectsForeignArchive(t *testing.T) {
	dir := buildStore(t, 3, 4)
	foreign := buildStoreSeed(t, 3, 4, 43)
	serveReplica := func(dir string) (*httptest.Server, *obs.Registry) {
		reg := obs.NewRegistry()
		r := NewReplica(ReplicaOptions{Backend: openTestBackend(t, dir), Registry: reg})
		mux := http.NewServeMux()
		for pattern, h := range r.Handlers() {
			mux.Handle(pattern, h)
		}
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv, reg
	}
	a, _ := serveReplica(dir)
	b, bReg := serveReplica(foreign)
	c, _ := serveReplica(dir)
	cl := &Client{Replicas: []string{a.URL, b.URL, c.URL}, Timeout: 300 * time.Millisecond, Seed: 1}

	first, err := cl.Get("/api/meta", nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.ServedBy != a.URL || first.Archive == "" {
		t.Fatalf("first answer from %s archive %q, want %s with an archive", first.ServedBy, first.Archive, a.URL)
	}
	a.Close()
	resp, err := cl.Get("/api/meta", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServedBy != c.URL || resp.Archive != first.Archive || resp.Digest != first.Digest {
		t.Fatalf("after A died: served by %s archive %s digest %s, want %s %s %s",
			resp.ServedBy, resp.Archive, resp.Digest, c.URL, first.Archive, first.Digest)
	}
	c.Close()
	asked := func() int64 { return bReg.Snapshot().Counters[MetricRequests+`{endpoint="meta"}`] }
	before := asked()
	resp, err = cl.Get("/api/meta", nil)
	if err == nil {
		t.Fatalf("Get returned a body from %s (archive %s) with only a foreign replica alive", resp.ServedBy, resp.Archive)
	}
	if asked() == before {
		t.Fatal("the foreign replica was never asked, so the check proved nothing")
	}
}

// TestAdmissionShed: with every slot occupied the replica refuses /api/*
// with 503 + Retry-After and counts the shed, before spending any work
// on the request.
func TestAdmissionShed(t *testing.T) {
	reg := obs.NewRegistry()
	// A real backend, so a gate that wrongly admits fails the status
	// check below instead of panicking on a nil backend.
	be := openTestBackend(t, buildStore(t, 2, 2))
	r := NewReplica(ReplicaOptions{MaxInFlight: 1, Registry: reg, Backend: be})
	if !r.adm.tryAcquire() {
		t.Fatal("fresh admission gate refused")
	}
	defer r.adm.release()

	h := r.Handlers()["/api/meta"]
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/meta", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if got := reg.Snapshot().Counters[MetricShed]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}
}

// TestClientRidesShed: a replica whose admission slots are all taken
// sheds the query with a 503, and the client fails over to the next
// replica instead of surfacing the overload.
func TestClientRidesShed(t *testing.T) {
	dir := buildStore(t, 3, 4)
	busyReg := obs.NewRegistry()
	busy := NewReplica(ReplicaOptions{Backend: openTestBackend(t, dir), MaxInFlight: 1, Registry: busyReg})
	if !busy.adm.tryAcquire() {
		t.Fatal("fresh admission gate refused")
	}
	defer busy.adm.release()
	idle := NewReplica(ReplicaOptions{Backend: openTestBackend(t, dir), Registry: obs.NewRegistry()})
	var urls []string
	for _, r := range []*Replica{busy, idle} {
		mux := http.NewServeMux()
		for pattern, h := range r.Handlers() {
			mux.Handle(pattern, h)
		}
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}

	cl := &Client{Replicas: urls, Timeout: 5 * time.Second, Seed: 1}
	resp, err := cl.Get("/api/meta", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServedBy != urls[1] {
		t.Fatalf("served by %s, want the idle replica %s", resp.ServedBy, urls[1])
	}
	if got := busyReg.Snapshot().Counters[MetricShed]; got != 1 {
		t.Fatalf("busy replica %s = %d, want 1", MetricShed, got)
	}
}

// TestAdmissionUnlimitedByDefault: MaxInFlight 0 admits everything.
func TestAdmissionUnlimitedByDefault(t *testing.T) {
	var a *admission // = newAdmission(0)
	for i := 0; i < 100; i++ {
		if !a.tryAcquire() {
			t.Fatal("nil admission refused a request")
		}
	}
	a.release() // must not panic
}

// fault is what faultyTransport does to one request.
type fault int

const (
	pass      fault = iota
	drop            // never sent
	loseReply       // delivered and answered, but the answer never arrives
)

// faultyTransport is a seeded faulty http.RoundTripper over
// http.DefaultTransport, for driving the client's failover paths against
// real replicas. A request's fate is a pure function of (seed, replica
// URL, request index at that replica): script pins the first fates per
// replica, and past the script each request is dropped or loses its
// reply with probability rate/2 each.
type faultyTransport struct {
	seed   int64
	rate   float64
	script map[string][]fault

	mu   sync.Mutex
	sent map[string]int // requests seen per replica
}

func (ft *faultyTransport) fate(replica string, i int) fault {
	if s := ft.script[replica]; i < len(s) {
		return s[i]
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", ft.seed, replica, i)
	u := rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
	switch {
	case u < ft.rate/2:
		return drop
	case u < ft.rate:
		return loseReply
	}
	return pass
}

func (ft *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	replica := req.URL.Scheme + "://" + req.URL.Host
	ft.mu.Lock()
	if ft.sent == nil {
		ft.sent = make(map[string]int)
	}
	i := ft.sent[replica]
	ft.sent[replica]++
	ft.mu.Unlock()
	switch ft.fate(replica, i) {
	case drop:
		return nil, fmt.Errorf("request %d to %s dropped", i, replica)
	case loseReply:
		if resp, err := http.DefaultTransport.RoundTrip(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("reply %d from %s lost", i, replica)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (ft *faultyTransport) count(replica string) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.sent[replica]
}

// TestClientReplyLoss: the first replica processes the query but its
// answer is lost. The replica counted the request, and Get answers from
// the next replica with the same digest.
func TestClientReplyLoss(t *testing.T) {
	d, _ := startTestDeployment(t, 0)
	first := d.Names[0]
	ft := &faultyTransport{script: map[string][]fault{first: {loseReply}}}
	cl := &Client{Replicas: d.Names, HC: &http.Client{Transport: ft}, Timeout: 5 * time.Second, Seed: 1}
	q := url.Values{"src": {"0"}, "dst": {"1"}}
	served := func() int64 {
		return d.Registries[first].Snapshot().Counters[MetricRequests+`{endpoint="series"}`]
	}

	resp, err := cl.Get("/api/series", q)
	if err != nil {
		t.Fatal(err)
	}
	if served() != 1 {
		t.Fatalf("%s served %d series requests, want 1: the lost reply was never delivered", first, served())
	}
	if resp.ServedBy != d.Names[1] {
		t.Fatalf("served by %s, want the next replica %s", resp.ServedBy, d.Names[1])
	}
	direct, err := (&Client{Replicas: []string{first}, Timeout: 5 * time.Second}).Get("/api/series", q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Digest == "" || resp.Digest != direct.Digest {
		t.Fatalf("failover digest %q, %s answers %q", resp.Digest, first, direct.Digest)
	}
}

// TestClientBackoffPass: every replica fails its first attempt, so the
// first pass over the list fails. Get backs off once and the second pass
// answers from the first choice.
func TestClientBackoffPass(t *testing.T) {
	d, _ := startTestDeployment(t, 0)
	ft := &faultyTransport{script: map[string][]fault{
		d.Names[0]: {drop}, d.Names[1]: {loseReply}, d.Names[2]: {drop},
	}}
	cl := &Client{Replicas: d.Names, HC: &http.Client{Transport: ft}, Timeout: 5 * time.Second, Seed: 1}
	resp, err := cl.Get("/api/meta", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServedBy != d.Names[0] {
		t.Fatalf("served by %s, want the first choice %s on the second pass", resp.ServedBy, d.Names[0])
	}
	if retries, _ := cl.Stats(); retries < 1 {
		t.Fatalf("retries = %d, want at least one backoff pass", retries)
	}
	for i, name := range d.Names {
		if want := map[int]int{0: 2, 1: 1, 2: 1}[i]; ft.count(name) != want {
			t.Fatalf("%s asked %d times, want %d", name, ft.count(name), want)
		}
	}
}

// TestClientFaultsDeterministic: under one seeded fault schedule, the
// same seed gives the same ServedBy sequence, so a failing run replays.
// Another seed gives another sequence.
func TestClientFaultsDeterministic(t *testing.T) {
	d, pairs := startTestDeployment(t, 0)
	queries := Schedule(3, 0, pairs, 40, 1.3)
	servedBy := func(seed int64) []string {
		cl := &Client{
			Replicas: d.Names, HC: &http.Client{Transport: &faultyTransport{seed: seed, rate: 0.5}},
			Timeout: 5 * time.Second, Seed: seed,
			// The breaker's cooldown runs on wall time; keep it closed so
			// the sequence depends on the seed alone.
			BreakerThreshold: 1 << 20,
		}
		var out []string
		for _, q := range queries {
			resp, err := cl.Get("/api/"+q.Endpoint, q.Values())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.ServedBy)
		}
		return out
	}
	a, b := servedBy(11), servedBy(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different ServedBy sequences:\n%v\n%v", a, b)
	}
	failovers := 0
	for _, name := range a {
		if name != d.Names[0] {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("a 50% fault rate forced no failover")
	}
	if reflect.DeepEqual(a, servedBy(12)) {
		t.Fatal("seeds 11 and 12 gave the same ServedBy sequence")
	}
}

// TestClientCancelAbortsInFlight: canceling GetCtx aborts the request
// already on the wire, not just the retry loop around it.
func TestClientCancelAbortsInFlight(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })

	cl := &Client{Replicas: []string{srv.URL}, Timeout: time.Minute, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.GetCtx(ctx, "/api/meta", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCtx still waiting on the in-flight request after cancel")
	}
}
