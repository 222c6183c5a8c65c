package server

import (
	"errors"
	"strconv"
	"time"
)

// Cluster routing: a Server can be told which node owns each shard (one
// epoch of the cluster map, projected onto this process). Requests whose
// shard set touches a shard owned elsewhere are answered with a MOVED
// redirect instead of being executed, in both wire protocols:
//
//	text:    MOVED <shard> <epoch> <addr>
//	binary:  0x85 frame — u32le shard | u64le epoch | addr bytes
//
// so a map-aware client can refresh its view and retry against the owner.
// Shards may additionally be frozen at admission — the migration cutover
// window — which parks new requests for that shard until the route changes
// (normally a few milliseconds: drain, digest, epoch bump, unfreeze).
// Without a route installed (standalone servers) the gate is a single nil
// pointer load.

// Route is one immutable ownership view: Owner[shard] is the owning node's
// advertised data address ("" = unowned/unknown, treated as local so a
// bootstrapping node can serve before the first full map). Self is this
// node's advertised address.
type Route struct {
	Epoch uint64
	Owner []string
	Self  string
}

func (rt *Route) owns(shard int) bool {
	return shard >= len(rt.Owner) || rt.Owner[shard] == "" || rt.Owner[shard] == rt.Self
}

// Moved is the redirect for an op targeting a shard this node does not own.
type Moved struct {
	Shard int
	Epoch uint64
	Addr  string
}

// errShardFrozen is the admission-gate timeout: a shard stayed frozen past
// frozenAdmitTimeout (a stuck migration, not a normal cutover).
var errShardFrozen = errors.New("shard frozen (migration cutover)")

// frozenAdmitTimeout bounds how long a request parks on a frozen shard
// before giving up with an ERR. Cutovers hold the freeze for milliseconds;
// anything near this bound is a wedged coordinator.
const frozenAdmitTimeout = 5 * time.Second

// SetRoute installs (or with owner == nil removes) the ownership view.
// owner is copied. Parked requests re-evaluate against the new route.
func (s *Server) SetRoute(epoch uint64, owner []string, self string) {
	if owner == nil {
		s.route.Store(nil)
	} else {
		rt := &Route{Epoch: epoch, Owner: append([]string(nil), owner...), Self: self}
		s.route.Store(rt)
	}
	s.routeChanged()
}

// CurrentRoute returns the installed route (nil when standalone).
func (s *Server) CurrentRoute() *Route { return s.route.Load() }

// OwnsShard reports whether this node currently owns shard (true when no
// route is installed).
func (s *Server) OwnsShard(shard int) bool {
	rt := s.route.Load()
	return rt == nil || rt.owns(shard)
}

// FreezeShard blocks new requests for shard at admission (they park, they
// are not errored) — the migration cutover gate. Unlike Freeze, requests
// for other shards keep flowing. Pair with UnfreezeShard or a SetRoute that
// moves the shard away.
func (s *Server) FreezeShard(shard int) {
	if shard < 0 || shard >= 64 {
		return
	}
	for {
		old := s.frozenMask.Load()
		if s.frozenMask.CompareAndSwap(old, old|uint64(1)<<uint(shard)) {
			break
		}
	}
	s.routeChanged()
}

// UnfreezeShard releases a FreezeShard gate and wakes parked requests.
func (s *Server) UnfreezeShard(shard int) {
	if shard < 0 || shard >= 64 {
		return
	}
	for {
		old := s.frozenMask.Load()
		if s.frozenMask.CompareAndSwap(old, old&^(uint64(1)<<uint(shard))) {
			break
		}
	}
	s.routeChanged()
}

// routeChanged wakes every request parked in admitShards so it re-evaluates
// the route and the frozen mask.
func (s *Server) routeChanged() {
	s.routeMu.Lock()
	ch := s.routeWake
	s.routeWake = make(chan struct{})
	s.routeMu.Unlock()
	close(ch)
}

// admitShards gates a request's shard set against the cluster route. It
// returns a non-nil Moved when some shard is owned elsewhere (reply with a
// redirect), parks while an owned shard is frozen, and errors only on
// shutdown or a stuck freeze. Before it parks it commits what w has queued:
// those jobs may have no other committer, and until they commit no other
// connection sees them.
func (s *Server) admitShards(w *window, shards []int) (*Moved, error) {
	if s.route.Load() == nil && s.frozenMask.Load() == 0 {
		return nil, nil // standalone fast path
	}
	deadline := time.Now().Add(frozenAdmitTimeout)
	for {
		rt := s.route.Load()
		if rt != nil {
			for _, sh := range shards {
				if !rt.owns(sh) {
					s.movedOps.Add(1)
					return &Moved{Shard: sh, Epoch: rt.Epoch, Addr: rt.Owner[sh]}, nil
				}
			}
		}
		mask := s.frozenMask.Load()
		blocked := false
		for _, sh := range shards {
			if sh >= 0 && sh < 64 && mask&(uint64(1)<<uint(sh)) != 0 {
				blocked = true
				break
			}
		}
		if !blocked {
			return nil, nil
		}
		for i := range w.pend {
			if j := w.pend[i].j; j != nil {
				s.commitThrough(j)
			}
		}
		s.frozenWaits.Add(1)
		s.routeMu.Lock()
		wake := s.routeWake
		s.routeMu.Unlock()
		// Re-check after capturing the wake channel: an unfreeze between the
		// mask load and the capture closed the previous channel, which this
		// capture may have missed.
		if s.frozenMask.Load() != mask || s.route.Load() != rt {
			continue
		}
		select {
		case <-wake:
		case <-s.quit:
			return nil, ErrClosed
		case <-time.After(time.Until(deadline)):
			return nil, errShardFrozen
		}
	}
}

// MovedError is the typed client-side form of a MOVED redirect: the shard,
// the redirecting node's map epoch, and the owner to retry against.
type MovedError struct {
	Shard int
	Epoch uint64
	Addr  string
}

func (e *MovedError) Error() string {
	return "server: MOVED shard " + strconv.Itoa(e.Shard) +
		" to " + e.Addr + " (epoch " + strconv.FormatUint(e.Epoch, 10) + ")"
}

// AsMoved unwraps err as a MovedError (nil when it is not one).
func AsMoved(err error) *MovedError {
	var mv *MovedError
	if errors.As(err, &mv) {
		return mv
	}
	return nil
}
