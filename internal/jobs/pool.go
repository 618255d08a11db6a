package jobs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Pool is a bounded set of worker slots shared by every running job, with
// round-robin fairness across clients: when slots are contended, a freed
// slot goes to the *next client* in rotation, not to whichever waiter
// queued first. A big job that keeps a thousand units queued therefore
// cannot starve a small job — the small job's waiters are interleaved one
// grant per rotation: every concurrent consumer gets its share of the
// slots, rather than first-come-takes-all.
//
// Within one client, waiters are served FIFO.
type Pool struct {
	mu   sync.Mutex
	free int
	// ring holds the clients with at least one pending waiter, in grant
	// rotation order: grantLocked serves ring[0] and moves it to the back
	// if it still has waiters.
	ring []*PoolClient
}

// NewPool returns a pool of `slots` worker slots (<= 0: GOMAXPROCS).
func NewPool(slots int) *Pool {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Pool{free: slots}
}

// PoolClient is one job's handle on the pool; all of a job's Acquire calls
// go through its own client, which is what the round-robin rotation is
// keyed on.
type PoolClient struct {
	p       *Pool
	waiters []chan struct{}
	closed  bool
}

// Client registers a new client.
func (p *Pool) Client() *PoolClient { return &PoolClient{p: p} }

// Acquire blocks until a slot is granted or ctx is canceled (returning
// ctx's error). Every successful Acquire must be paired with one Release.
func (c *PoolClient) Acquire(ctx context.Context) error {
	p := c.p
	p.mu.Lock()
	if c.closed {
		p.mu.Unlock()
		return fmt.Errorf("jobs: acquire on a closed pool client")
	}
	// Take a free slot only when nobody is queued: jumping past the ring
	// would let a greedy client bypass the rotation.
	if p.free > 0 && len(p.ring) == 0 {
		p.free--
		p.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	if len(c.waiters) == 0 {
		p.ring = append(p.ring, c)
	}
	c.waiters = append(c.waiters, ch)
	p.mu.Unlock()

	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		select {
		case <-ch:
			// The grant raced the cancellation: the slot is ours, so pass
			// it on rather than leaking it.
			p.grantLocked()
		default:
			c.removeWaiterLocked(ch)
		}
		p.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns a slot to the pool, handing it straight to the next
// waiter in rotation when there is one.
func (c *PoolClient) Release() {
	c.p.mu.Lock()
	c.p.grantLocked()
	c.p.mu.Unlock()
}

// Close withdraws the client from the rotation. The job runner cancels
// its workers' ctx before closing, so by the time a client closes its
// waiters have drained through Acquire's cancellation path; withdrawn
// waiters that somehow remain finish via that same path, never a grant.
func (c *PoolClient) Close() {
	c.p.mu.Lock()
	c.closed = true
	c.waiters = nil
	for i, rc := range c.p.ring {
		if rc == c {
			c.p.ring = append(c.p.ring[:i], c.p.ring[i+1:]...)
			break
		}
	}
	c.p.mu.Unlock()
}

// grantLocked hands one slot to the next client in rotation, or banks it
// as free when nobody waits.
func (p *Pool) grantLocked() {
	for len(p.ring) > 0 {
		c := p.ring[0]
		p.ring = p.ring[1:]
		if len(c.waiters) == 0 {
			continue
		}
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		if len(c.waiters) > 0 {
			p.ring = append(p.ring, c)
		}
		close(ch)
		return
	}
	p.free++
}

// removeWaiterLocked drops one canceled waiter, fixing the client's ring
// membership.
func (c *PoolClient) removeWaiterLocked(ch chan struct{}) {
	for i, w := range c.waiters {
		if w == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	if len(c.waiters) == 0 {
		for i, rc := range c.p.ring {
			if rc == c {
				c.p.ring = append(c.p.ring[:i], c.p.ring[i+1:]...)
				break
			}
		}
	}
}
