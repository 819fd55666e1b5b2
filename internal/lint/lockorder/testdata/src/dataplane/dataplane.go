// Package dataplane seeds lockorder's golden violations of the
// unlock-on-every-path and self-deadlock rules — a missing unlock on an
// early-return path, a guaranteed self-deadlock — plus the blessed
// shapes (defer, branch-unlock, conditional pairs, nested distinct
// locks) that must stay quiet. The blocking-under-lock goldens are
// ../../../../locksend's.
package dataplane

import "sync"

type A struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

type R struct{ mu sync.RWMutex }

// ---- violations ----

// earlyReturnHold is the Lock; if err { return } bug class: the guard
// path exits with the mutex still held.
func earlyReturnHold(d *D, fail bool) int {
	d.mu.Lock()
	if fail {
		return 0 // want `lock d.mu is still held on this return path`
	}
	d.mu.Unlock()
	return 1
}

// relock acquires the same instance twice on a straight line.
func relock(d *D) {
	d.mu.Lock()
	d.mu.Lock() // want `Lock of d.mu while it is already held: guaranteed self-deadlock`
	d.mu.Unlock()
	d.mu.Unlock()
}

// ---- blessed paths: no findings ----

// deferUnlock discharges the exit obligation at every return.
func deferUnlock(d *D, n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n == 0 {
		return 0
	}
	return n
}

// branchUnlock releases explicitly on both paths — the TakeSnapshot
// shape.
func branchUnlock(d *D, drop bool) int {
	d.mu.Lock()
	if drop {
		d.mu.Unlock()
		return 0
	}
	d.mu.Unlock()
	return 1
}

// condPair only ever locks and unlocks under the same guard: the
// must-join keeps the held-set empty, so neither check may fire.
func condPair(d *D, b bool) {
	if b {
		d.mu.Lock()
	}
	if b {
		d.mu.Unlock()
	}
}

// rwReaders pairs RLock with RUnlock.
func rwReaders(r *R) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return 7
}

// goroutineFresh starts a goroutine that takes the same lock: the
// literal runs with a fresh held-set, so this is nesting-free.
func goroutineFresh(d *D) {
	d.mu.Lock()
	go func() {
		d.mu.Lock()
		d.mu.Unlock()
	}()
	d.mu.Unlock()
}

// consistentOrder nests two distinct mutexes: holding a.mu while taking
// b.mu is no re-acquisition (and there is no acquisition-order rule).
func consistentOrder(a *A, b *B2) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

type B2 struct{ mu sync.Mutex }
