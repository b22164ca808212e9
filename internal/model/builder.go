package model

// Builder constructs histories fluently. Each method appends a
// completed operation (invocation immediately followed by its
// response), which matches how the paper's figures interleave whole
// operations; Raw gives access to finer interleavings.
//
// The zero value is ready to use.
type Builder struct {
	h History
}

// NewBuilder returns an empty history builder.
func NewBuilder() *Builder { return &Builder{} }

// Read appends x.read_p() → v.
func (b *Builder) Read(p Proc, x TVar, v Value) *Builder {
	b.h = append(b.h, Read(p, x), ValueResp(p, v))
	return b
}

// ReadAbort appends x.read_p() → A_p.
func (b *Builder) ReadAbort(p Proc, x TVar) *Builder {
	b.h = append(b.h, Read(p, x), Abort(p))
	return b
}

// Write appends x.write_p(v) → ok_p.
func (b *Builder) Write(p Proc, x TVar, v Value) *Builder {
	b.h = append(b.h, Write(p, x, v), OK(p))
	return b
}

// WriteAbort appends x.write_p(v) → A_p.
func (b *Builder) WriteAbort(p Proc, x TVar, v Value) *Builder {
	b.h = append(b.h, Write(p, x, v), Abort(p))
	return b
}

// Commit appends tryC_p → C_p.
func (b *Builder) Commit(p Proc) *Builder {
	b.h = append(b.h, TryCommit(p), Commit(p))
	return b
}

// CommitAbort appends tryC_p → A_p.
func (b *Builder) CommitAbort(p Proc) *Builder {
	b.h = append(b.h, TryCommit(p), Abort(p))
	return b
}

// Raw appends arbitrary events, allowing interleavings where an
// invocation and its response are separated by other processes'
// events.
//
//lint:allow(unused) the builder's one way to leave a transaction live or commit-pending; the model, safety, monitor, stm and trace tests build their incomplete histories with it
func (b *Builder) Raw(events ...Event) *Builder {
	b.h = append(b.h, events...)
	return b
}

// History returns the built history. The builder can keep being used;
// the returned slice is a copy.
func (b *Builder) History() History { return b.h.Clone() }
