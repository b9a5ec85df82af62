// Package hotpathalloc is the golden suite for the hotpathalloc
// analyzer: //paramecium:hotpath functions must not allocate.
package hotpathalloc

import "fmt"

type ring struct {
	buf  []byte
	errs []error
}

type parsedError struct{ code int }

func (e *parsedError) Error() string { return "parsed" }

// setup is not annotated: allocation is fine off the hot path.
func setup(n int) []byte {
	return make([]byte, n)
}

// push reuses its retained buffer: the one append form allowed.
//
//paramecium:hotpath
func (r *ring) push(b []byte) {
	r.buf = append(r.buf, b...)
}

// bad allocates in every way at once.
//
//paramecium:hotpath
func (r *ring) bad(n int, name string) {
	tmp := make([]byte, n) // want `hot path calls make`
	p := new(int)          // want `hot path calls new`
	r.buf = append(tmp, 1) // want `hot path appends to a slice it does not reuse`
	_ = name + "!"         // want `hot path concatenates strings`
	s := []int{1, 2, 3}    // want `hot path builds a slice literal`
	go func() {}()         // want `hot path spawns a goroutine` `hot path creates a function literal`
	_, _ = p, s
}

func sink(v any) {}

// box passes a non-pointer into an interface parameter.
//
//paramecium:hotpath
func (r *ring) box(x int, e *parsedError) {
	sink(x) // want `hot path boxes a non-pointer int into an interface argument`
	sink(e)
}

// fail formats an error: fmt/errors calls are the exempt error path.
//
//paramecium:hotpath
func (r *ring) fail(code int) error {
	return fmt.Errorf("code %d", code)
}

// errPath constructs an error value: an error is no exemption, so a
// hot path returns a preallocated or value error instead.
//
//paramecium:hotpath
func (r *ring) errPath(ok bool) error {
	if !ok {
		return &parsedError{code: 7} // want `hot path takes the address of a composite literal`
	}
	return nil
}

// locked defers a statement-scoped closure, which is allowed.
//
//paramecium:hotpath
func (r *ring) locked(mu interface {
	Lock()
	Unlock()
}) {
	mu.Lock()
	defer func() { mu.Unlock() }()
}

// lazyInit is a reviewed one-time allocation.
//
//paramecium:hotpath
func (r *ring) lazyInit() {
	if r.errs == nil {
		//paralint:ignore hotpathalloc one-time lazy initialization, amortized to zero per call
		r.errs = make([]error, 0, 8)
	}
}
