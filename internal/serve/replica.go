package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// ReplicaOptions parameterizes a Replica.
type ReplicaOptions struct {
	// Name is the replica's advertised base URL ("http://127.0.0.1:7401"),
	// stamped on replies as X-S2S-Served-By.
	Name string
	// Backend answers queries over this replica's own store handle.
	Backend *Backend
	// CacheEntries bounds the hot-pair cache (0 disables caching).
	CacheEntries int
	// MaxInFlight bounds concurrently executing /api/* queries; excess
	// requests are shed with 503 + Retry-After rather than queued into
	// memory exhaustion (0 = unlimited).
	MaxInFlight int
	// Registry observes the replica (optional).
	Registry *obs.Registry
}

// Replica is one query server. Replicas share no state and make no
// outbound calls: every answer is a deterministic function of the sealed
// archive, so any replica opened on the same archive computes the same
// bytes, and a client may ask whichever one is reachable. The archive
// identity on every answer (X-S2S-Archive) is what lets the client check
// that two replicas really are interchangeable.
type Replica struct {
	name  string
	be    *Backend
	cache *Cache
	adm   *admission

	requestsC map[string]*obs.Counter
	latencyH  map[string]*obs.Histogram
	errorsC   *obs.Counter
	shedC     *obs.Counter
}

// NewReplica builds a replica; mount Handlers on an HTTP server at Name.
func NewReplica(o ReplicaOptions) *Replica {
	r := &Replica{
		name:      o.Name,
		be:        o.Backend,
		cache:     NewCache(o.CacheEntries),
		adm:       newAdmission(o.MaxInFlight),
		requestsC: make(map[string]*obs.Counter, len(Endpoints)),
		latencyH:  make(map[string]*obs.Histogram, len(Endpoints)),
	}
	r.cache.Instrument(o.Registry)
	if reg := o.Registry; reg != nil {
		for _, ep := range Endpoints {
			r.requestsC[ep] = reg.Counter(fmt.Sprintf(`%s{endpoint=%q}`, MetricRequests, ep),
				"query requests served, by endpoint")
			r.latencyH[ep] = reg.Histogram(fmt.Sprintf(`%s{endpoint=%q}`, MetricLatency, ep),
				"query latency in seconds, by endpoint", obs.DurationBuckets())
		}
		r.errorsC = reg.Counter(MetricErrors, "query requests answered with an error status")
		r.shedC = reg.Counter(MetricShed, "query requests shed by admission control (503 + Retry-After)")
	}
	return r
}

// Handlers returns the replica's HTTP surface, ready to mount on the ops
// mux (ops.Options.Extra) or a bare ServeMux.
func (r *Replica) Handlers() map[string]http.Handler {
	h := make(map[string]http.Handler, len(Endpoints))
	for _, ep := range Endpoints {
		h["/api/"+ep] = r.queryHandler(ep)
	}
	return h
}

// queryHandler wraps one endpoint with admission control and the cache.
func (r *Replica) queryHandler(endpoint string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		r.requestsC[endpoint].Inc()
		defer func() { r.latencyH[endpoint].Observe(time.Since(start).Seconds()) }()

		// Admission control: shed rather than queue once MaxInFlight
		// queries are executing. 503 + Retry-After tells a generic client
		// this is overload, not failure; the Client's jittered backoff
		// desynchronizes the retries.
		if !r.adm.tryAcquire() {
			r.shedC.Inc()
			w.Header().Set("Retry-After", "1")
			r.fail(w, http.StatusServiceUnavailable,
				fmt.Sprintf("overloaded: %d queries in flight", r.adm.max))
			return
		}
		defer r.adm.release()

		var q PairQuery
		if endpoint == "series" || endpoint == "paths" || endpoint == "summary" {
			var err error
			if q, err = ParsePairQuery(req.URL.Query()); err != nil {
				r.fail(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		key := q.CanonicalKey(endpoint)

		if body, digest, ok := r.cache.Get(key); ok {
			r.reply(w, digest, body, true)
			return
		}
		body, digest, err := r.be.Answer(req.Context(), endpoint, q)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The client went away mid-read; nobody is listening to the
				// status code, but the error counter should not blame the
				// backend.
				return
			}
			r.fail(w, http.StatusInternalServerError, err.Error())
			return
		}
		r.cache.Put(key, body, digest)
		r.reply(w, digest, body, false)
	})
}

// reply writes an answer with its digest and the archive it came from.
func (r *Replica) reply(w http.ResponseWriter, digest string, body []byte, hit bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-S2S-Digest", digest)
	h.Set("X-S2S-Archive", r.be.ArchiveID())
	h.Set("X-S2S-Served-By", r.name)
	if hit {
		h.Set("X-S2S-Cache", "hit")
	} else {
		h.Set("X-S2S-Cache", "miss")
	}
	w.Write(body)
}

func (r *Replica) fail(w http.ResponseWriter, status int, msg string) {
	r.errorsC.Inc()
	writeJSON(w, status, map[string]string{"error": msg})
}

// admission is a bounded in-flight gate: a semaphore that refuses
// instead of blocking, so overload turns into fast 503s the client can
// back off from, not a queue that grows until the process dies. A nil
// admission admits everything.
type admission struct {
	max   int
	slots chan struct{}
}

func newAdmission(max int) *admission {
	if max <= 0 {
		return nil
	}
	return &admission{max: max, slots: make(chan struct{}, max)}
}

func (a *admission) tryAcquire() bool {
	if a == nil {
		return true
	}
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (a *admission) release() {
	if a == nil {
		return
	}
	<-a.slots
}
