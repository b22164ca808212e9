// Package fixture exercises the lockorder rule: lock/unlock pairing
// on all paths.
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

// indexedPairs pairs each indexed lock before taking the next.
func indexedPairs(s *shards) {
	s.mu[1].Lock()
	s.mu[1].Unlock()
	s.mu[0].Lock()
	s.mu[0].Unlock()
}

// sweep locks every element in one loop and unlocks them in
// another: indexed receivers pair by slice.
func sweep(s *shards) {
	for i := range s.mu {
		s.mu[i].Lock()
	}
	for i := range s.mu {
		s.mu[i].Unlock()
	}
}
