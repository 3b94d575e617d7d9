package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
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
// schedule — chaos runs replay — and different seeds de-lockstep a
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
	r := NewReplica(ReplicaOptions{MaxInFlight: 1, Registry: reg})
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
