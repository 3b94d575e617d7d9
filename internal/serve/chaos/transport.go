package chaos

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// Error is a synthetic network failure injected by a Transport. Senders
// cannot (and must not) distinguish it from a real connection failure;
// the type exists so tests can assert a fault was injected rather than
// organic.
type Error struct {
	Op  string // "drop" or "reply_loss"
	Src string
	Dst string
}

func (e *Error) Error() string { return fmt.Sprintf("chaos: %s %s -> %s", e.Op, e.Src, e.Dst) }

// Transport injects the plan's faults into every request one component
// sends. It wraps a real RoundTripper: verdicts that deliver (delay,
// duplicate, reply-loss) still cross the wire, so the destination's
// side effects — a replica answering a query whose reply was lost — are
// real, not simulated.
type Transport struct {
	self string
	plan *Plan
	base http.RoundTripper
}

// NewTransport wraps base (default http.DefaultTransport) with the
// plan's faults for requests sent by the named component.
func NewTransport(self string, plan *Plan, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{self: self, plan: plan, base: base}
}

// RoundTrip applies the edge's verdict: delay first (the slow link also
// slows requests it then loses), then drop, then delivery with
// duplication or reply loss.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.plan.StartClock()
	dst := req.URL.Scheme + "://" + req.URL.Host
	v := t.plan.At(t.self, dst, t.plan.Elapsed())

	if v.Delay > 0 {
		t.plan.noteDelay()
		timer := time.NewTimer(v.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if v.Drop {
		t.plan.noteDrop()
		return nil, &Error{Op: "drop", Src: t.self, Dst: dst}
	}
	// A duplicated request is delivered twice; the sender sees the second
	// response (the first is consumed by "the network"). Only replayable
	// bodies can be re-sent — bodyless GETs and anything with GetBody.
	if v.Duplicate && (req.Body == nil || req.GetBody != nil) {
		first, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, first.Body)
		first.Body.Close()
		clone := req.Clone(req.Context())
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, berr
			}
			clone.Body = body
		}
		t.plan.noteDup()
		return t.base.RoundTrip(clone)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if v.LoseReply {
		// The destination handled the request; the sender never learns.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.plan.noteLost()
		return nil, &Error{Op: "reply_loss", Src: t.self, Dst: dst}
	}
	return resp, nil
}
