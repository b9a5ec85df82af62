package obj

import "fmt"

// MethodHandle is a pre-resolved method binding: the bind-once /
// invoke-many pattern the paper's late binding implies. A handle is
// obtained from Invoker.Resolve; its Call dispatches by slot index
// with no per-call name lookup or lock. Handles stay live through
// rebinding — a slot rebound after Resolve is observed by the next
// Call, exactly as a string-keyed Invoke would observe it.
//
// The zero MethodHandle is invalid; Call on it fails.
type MethodHandle struct {
	decl *MethodDecl
	// into is the handle's one dispatch form: results are appended to
	// a caller-provided slice, so a method bound with BindInto and
	// called with CallInto completes without allocating. Call is
	// CallInto with no buffer.
	into MethodInto
	// batcher, when non-nil, can execute a group of calls through this
	// handle (and its siblings) in one protection crossing; bkey is the
	// batcher-private per-handle routing key. See Batch.
	batcher Batcher
	bkey    any
}

// NewMethodHandle builds a handle from a declaration and a dispatch
// function. It is intended for Invoker implementations (interposers,
// cross-domain proxies) that supply their own dispatch path; dispatch
// receives the arguments exactly as passed to Call, after arity
// validation.
func NewMethodHandle(decl *MethodDecl, dispatch Method) MethodHandle {
	return NewBatchableHandle(decl, dispatch, nil, nil, nil)
}

// NewBatchableHandle is NewMethodHandle for Invoker implementations
// that can also execute grouped calls in one crossing: into is the
// buffer-threading dispatch form (dispatch is used, wrapped once,
// only when into is nil), batcher executes batch groups and key is
// the batcher's private routing key for this handle.
func NewBatchableHandle(decl *MethodDecl, dispatch Method, into MethodInto, batcher Batcher, key any) MethodHandle {
	if into == nil && dispatch != nil {
		into = intoOf(dispatch)
	}
	if decl == nil || into == nil {
		return MethodHandle{}
	}
	return MethodHandle{decl: decl, into: into, batcher: batcher, bkey: key}
}

// intoOf adapts a plain Method to the buffer-threading form. With an
// empty buffer the method's own result slice is returned as is, so a
// plain method called through CallInto allocates nothing beyond what
// the method itself does.
func intoOf(fn Method) MethodInto {
	return func(out []any, args ...any) ([]any, error) {
		res, err := fn(args...)
		return appendResults(out, res, err)
	}
}

// appendResults appends a plain method's results to out, returning res
// itself when out is empty or the call failed.
func appendResults(out, res []any, err error) ([]any, error) {
	if err != nil || len(out) == 0 {
		return res, err
	}
	return append(out, res...), nil
}

// Valid reports whether the handle is usable.
func (h MethodHandle) Valid() bool { return h.into != nil }

// Decl returns the type information of the resolved method.
func (h MethodHandle) Decl() *MethodDecl { return h.decl }

// Call invokes the resolved method: CallInto with no result buffer.
func (h MethodHandle) Call(args ...any) ([]any, error) {
	return h.CallInto(nil, args...)
}

// CallInto invokes the resolved method with a caller-provided result
// buffer: results are appended to out (typically a zero-length slice
// over a reused or stack array) and the extended slice is returned.
// It validates argument arity before dispatch and result arity after
// a successful return, using the declaration captured at resolve
// time. When the bound implementation supports the buffer-threading
// form (BindInto), the whole invocation — dispatch, method body,
// results — completes without allocating. Either way the returned
// slice is out plus exactly the method's results; treat it like any
// append result — valid only until out's array is reused.
//
//paramecium:hotpath
func (h MethodHandle) CallInto(out []any, args ...any) ([]any, error) {
	if h.into == nil {
		return nil, fmt.Errorf("%w: call through zero method handle", ErrUnbound)
	}
	if err := CheckArity(h.decl, args); err != nil {
		return nil, err
	}
	res, err := h.into(out, args...)
	if err != nil {
		return nil, err
	}
	if len(res) < len(out) {
		return nil, fmt.Errorf("%w: %s shrank the result buffer", ErrArity, h.decl.Name)
	}
	if err := CheckResults(h.decl, res[len(out):]); err != nil {
		return nil, err
	}
	return res, nil
}
