// Package fixture exercises the lockorder rule: lock/unlock pairing
// on all paths and ascending acquisition order over lock slices.
package fixture

import "sync"

var mu sync.Mutex

var ready bool

type shards struct {
	mu []sync.RWMutex
}

// leak locks and never unlocks anywhere in the function.
func leak() {
	mu.Lock() // want: no matching unlock
}

// earlyReturn unlocks on the fallthrough path but returns with the
// lock held on the branch.
func earlyReturn() int {
	mu.Lock()
	if ready {
		return 1 // want: is held with no deferred unlock
	}
	mu.Unlock()
	return 0
}

// deferGood is the canonical safe shape.
func deferGood() int {
	mu.Lock()
	defer mu.Unlock()
	if ready {
		return 1
	}
	return 0
}

// branchGood unlocks on every path explicitly.
func branchGood() int {
	mu.Lock()
	if ready {
		mu.Unlock()
		return 1
	}
	mu.Unlock()
	return 0
}

// outOfOrder acquires constant indices descending.
func outOfOrder(s *shards) {
	s.mu[1].Lock()
	s.mu[0].Lock() // want: ascending order
	s.mu[0].Unlock()
	s.mu[1].Unlock()
}

// releaseBetween reacquires a lower index only after releasing the
// higher one: legal.
func releaseBetween(s *shards) {
	s.mu[1].Lock()
	s.mu[1].Unlock()
	s.mu[0].Lock()
	s.mu[0].Unlock()
}

// descendingSweep locks a slice in a descending loop.
func descendingSweep(s *shards) {
	for i := len(s.mu) - 1; i >= 0; i-- {
		s.mu[i].Lock() // want: descending loop
	}
	for i := range s.mu {
		s.mu[i].Unlock()
	}
}

// ascendingSweep takes every element in index order: the convention.
func ascendingSweep(s *shards) {
	for i := range s.mu {
		s.mu[i].Lock()
	}
	for i := range s.mu {
		s.mu[i].Unlock()
	}
}
