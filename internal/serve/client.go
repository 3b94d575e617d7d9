package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a failover query client over a static replica list. Each Get
// starts at Replicas[0], the client's first choice, and on any failure —
// connection refused, 5xx, an answer from the wrong archive — moves on to
// the next replica; only after the whole list has failed does it back off
// and start over, until Timeout. Replicas are interchangeable, so a dead
// one costs the caller one failed attempt, not an error.
//
// Safety rests on one check: the client pins the X-S2S-Archive identity of
// the first answer it accepts and never returns a body stamped with a
// different one. A replica opened on another archive, or on the same
// store with different answer-shaping config, is skipped like a dead one.
//
// Two mechanisms keep a fleet of Clients from harming a struggling
// service. Retry backoff is jittered (seeded, so runs stay
// reproducible): after an outage the fleet's retries spread out instead
// of arriving in lockstep waves. And a per-replica circuit breaker trips
// after BreakerThreshold consecutive failures against one replica,
// skipping it for a cooldown while the rest of the list keeps serving.
type Client struct {
	// Replicas are the replicas' base URLs, first choice first.
	Replicas []string
	// HC is the underlying HTTP client (default http.DefaultClient).
	HC *http.Client
	// Timeout bounds one Get including all retries (default 20s).
	Timeout time.Duration
	// Seed makes the retry jitter deterministic (same seed, same waits).
	Seed int64
	// BreakerThreshold is how many consecutive failures against one
	// replica trip its circuit (default 4); BreakerCooldown how long it
	// stays open before a half-open probe (default 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	mu       sync.Mutex
	archive  string // X-S2S-Archive of the first accepted answer
	rng      *rand.Rand
	circuits map[string]*circuit

	retries atomic.Int64
	trips   atomic.Int64
}

// circuit is one replica's breaker state.
type circuit struct {
	fails     int       // consecutive failures
	openUntil time.Time // zero = closed
}

// Response is one answered query.
type Response struct {
	Body     []byte
	Digest   string // X-S2S-Digest: the body's digest
	Archive  string // X-S2S-Archive: the archive identity it was computed from
	ServedBy string // the entry of Replicas that answered
	CacheHit bool
}

func (c *Client) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return http.DefaultClient
}

// Stats returns how many backoff sleeps and breaker trips this client
// has performed: how hard it had to work to get its answers.
func (c *Client) Stats() (retries, breakerTrips int64) {
	return c.retries.Load(), c.trips.Load()
}

// Get issues one query (path like "/api/series") and fails over across
// the replica list until it gets an answer or Timeout elapses.
func (c *Client) Get(path string, q url.Values) (*Response, error) {
	return c.GetCtx(context.Background(), path, q)
}

// GetCtx is Get under a caller context: cancellation aborts the retry
// loop and the in-flight request, and propagates into the replica's
// backend so an abandoned query stops consuming its CPU.
func (c *Client) GetCtx(ctx context.Context, path string, q url.Values) (*Response, error) {
	if len(c.Replicas) == 0 {
		return nil, fmt.Errorf("serve: client has no replicas")
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		for _, name := range c.Replicas {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if c.circuitOpen(name) {
				if lastErr == nil {
					lastErr = fmt.Errorf("serve: circuit open for %s", name)
				}
				continue
			}
			resp, err := c.tryOnce(ctx, name, path, q)
			if err == nil {
				err = c.pinArchive(name, resp.Archive)
			}
			if err == nil {
				c.noteSuccess(name)
				return resp, nil
			}
			var bad *BadRequestError
			if errors.As(err, &bad) {
				return nil, err
			}
			lastErr = err
			c.noteFailure(name)
		}
		sleep := c.jitter(backoff)
		if time.Now().Add(sleep).After(deadline) {
			return nil, fmt.Errorf("serve: %s not answered within %v: %w", path, timeout, lastErr)
		}
		c.retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// pinArchive accepts an answer's archive identity if it is the first one
// this client has seen or matches it.
func (c *Client) pinArchive(name, archive string) error {
	if archive == "" {
		return fmt.Errorf("serve: %s sent no archive identity", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.archive == "" {
		c.archive = archive
	}
	if archive != c.archive {
		return fmt.Errorf("serve: %s serves archive %s, want %s", name, archive, c.archive)
	}
	return nil
}

// jitter spreads one backoff step uniformly over [0.5d, 1.5d): enough
// randomness to break fleet lockstep, small enough to keep the
// exponential envelope.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Seed))
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// circuitOpen reports whether the breaker currently blocks attempts at
// the named replica. Circuits are per replica: one tripping leaves the
// rest of the list untouched.
func (c *Client) circuitOpen(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cb := c.circuits[name]
	return cb != nil && time.Now().Before(cb.openUntil)
}

// noteFailure counts a consecutive failure; at the threshold the
// circuit opens for the cooldown. Past it, each further failure (the
// half-open probe) re-opens immediately.
func (c *Client) noteFailure(name string) {
	threshold := c.BreakerThreshold
	if threshold <= 0 {
		threshold = 4
	}
	cooldown := c.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.circuits == nil {
		c.circuits = make(map[string]*circuit)
	}
	cb := c.circuits[name]
	if cb == nil {
		cb = &circuit{}
		c.circuits[name] = cb
	}
	cb.fails++
	if cb.fails >= threshold {
		if !time.Now().Before(cb.openUntil) {
			c.trips.Add(1)
		}
		cb.openUntil = time.Now().Add(cooldown)
	}
}

func (c *Client) noteSuccess(name string) {
	c.mu.Lock()
	delete(c.circuits, name)
	c.mu.Unlock()
}

// tryOnce issues the query against one replica.
func (c *Client) tryOnce(ctx context.Context, name, path string, q url.Values) (*Response, error) {
	u := name + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, err
	}
	switch {
	case hresp.StatusCode == http.StatusOK:
		return &Response{
			Body:     body,
			Digest:   hresp.Header.Get("X-S2S-Digest"),
			Archive:  hresp.Header.Get("X-S2S-Archive"),
			ServedBy: name,
			CacheHit: hresp.Header.Get("X-S2S-Cache") == "hit",
		}, nil
	case hresp.StatusCode == http.StatusBadRequest:
		// Malformed query: retrying cannot help.
		return nil, &BadRequestError{Body: string(body)}
	default:
		return nil, fmt.Errorf("%s: status %d: %s", u, hresp.StatusCode, trimBody(body))
	}
}

// BadRequestError marks a non-retryable client error.
type BadRequestError struct{ Body string }

func (e *BadRequestError) Error() string { return "bad request: " + e.Body }

func trimBody(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
