// Package fixture exercises the mutexchan analyzer: no blocking
// channel operation while a sync.Mutex is held.
package fixture

import "sync"

type world struct {
	mu sync.Mutex
	ch chan int
}

func (w *world) sendUnderLock() {
	w.mu.Lock()
	w.ch <- 1 // want "channel send while w.mu is held"
	w.mu.Unlock()
}

func (w *world) recvUnderDeferredUnlock() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return <-w.ch // want "channel receive while w.mu is held"
}

func (w *world) selectUnderLock() {
	w.mu.Lock()
	select { // want "select without default while w.mu is held"
	case <-w.ch:
	}
	w.mu.Unlock()
}

func (w *world) rangeUnderLock() {
	w.mu.Lock()
	for range w.ch { // want "ranging over a channel while w.mu is held"
	}
	w.mu.Unlock()
}

func (w *world) sendInBranchUnderLock(flag bool) {
	w.mu.Lock()
	if flag {
		w.ch <- 1 // want "channel send while w.mu is held"
	}
	w.mu.Unlock()
}

// Non-blocking forms and lock-free paths are fine.

func (w *world) afterUnlock() {
	w.mu.Lock()
	w.mu.Unlock()
	w.ch <- 1
}

func (w *world) selectWithDefault() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case v := <-w.ch:
		return v
	default:
		return 0
	}
}

func (w *world) closeUnderLock() {
	w.mu.Lock()
	close(w.ch)
	w.mu.Unlock()
}

// A closure's channel operations block the closure's caller, not the
// function that merely builds it under the lock.
func (w *world) closureUnderLock() func() {
	w.mu.Lock()
	defer w.mu.Unlock()
	return func() { w.ch <- 1 }
}

func (w *world) rwLock(rw *sync.RWMutex) {
	rw.RLock()
	<-w.ch // want "channel receive while rw is held"
	rw.RUnlock()
}

// Receives in a switch header and in a for post statement run before
// any case or body, with the lock still held.

func (w *world) switchInitUnderLock() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch v := <-w.ch; v { // want "channel receive while w.mu is held"
	case 0:
		return 0
	}
	return 1
}

func (w *world) forPostUnderLock(n int) {
	w.mu.Lock()
	for i := 0; i < n; i, _ = i+1, <-w.ch { // want "channel receive while w.mu is held"
	}
	w.mu.Unlock()
}

// A lock taken on both arms of a branch is held at the join.
func (w *world) lockOnBothArms(flag bool) {
	if flag {
		w.mu.Lock()
	} else {
		w.mu.Lock()
	}
	w.ch <- 1 // want "channel send while w.mu is held"
	w.mu.Unlock()
}

// Deliberately silent: the lock is released on one arm, so it is not
// held on every path to the send. The analysis is must-hold, the same
// trade lockguard and unlockpath make: a lock held on only some paths
// never raises a finding, so conditional lock/unlock pairs cannot
// raise false alarms.
func (w *world) unlockOnOneArm(flag bool) {
	w.mu.Lock()
	if flag {
		w.mu.Unlock()
	}
	w.ch <- 1
	if !flag {
		w.mu.Unlock()
	}
}
