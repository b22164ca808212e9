package safety

import "livetm/internal/model"

// Synthetic violating streams for checker evaluation. The ROADMAP's
// open question — how often does the bounded-overlap forced-frontier
// fallback miss a violation the exact checker catches? — needs a
// family of histories that are (a) well-formed, (b) provably not
// opaque, and (c) cut-starved, so the fallback actually engages. This
// generator builds exactly those; the miss-rate test in this package
// sweeps it against both checkers and reports the rate.

// StreamGenConfig parameterizes one synthetic violating stream.
type StreamGenConfig struct {
	// Increments is the number of committed increment transactions p1
	// runs on x before the stale read (x goes 0 → Increments).
	Increments int
	// StaleDepth is how many commits back p2's read value lies: p2
	// reads Increments-StaleDepth even though every increment committed
	// before its read began. Must be in [1, Increments]. Ignored with
	// StraddlerViolation (p2 is omitted there).
	StaleDepth int
	// OpenReader makes the straddler also read x (legally, the initial
	// 0) before the increments start, pinning a pre-increment value
	// across any forced frontier.
	OpenReader bool
	// StraddlerViolation makes the straddler itself the violation: it
	// reads x = 0 before the increments (like OpenReader) and re-reads
	// x = Increments just before committing — no serialization explains
	// both — and p2 is omitted, so the straddler's own reads are the
	// history's only evidence. This is the family the fallback must
	// miss once a frontier fires: a straddler's reads are waived at the
	// frontier (see StreamChecker), trading exactly this detection for
	// false-alarm freedom.
	StraddlerViolation bool
	// CrossVariable plants the violation across two variables: every
	// increment writes x and y together, and p2's read set pairs a
	// fresh x = Increments with a stale y = Increments−StaleDepth. No
	// reachable snapshot has that combination, yet each variable's own
	// value sequence is innocent, so only a check over the joint state
	// rejects. The straddler reads z, a third variable, and keeps the
	// stream cut-starved. OpenReader and StraddlerViolation are ignored
	// with CrossVariable.
	CrossVariable bool
}

// ViolatingStream builds a well-formed history that is not opaque and
// has no quiescent cut before its final event:
//
//   - p3 opens a straddler transaction (a read of y, plus a read of
//     x = 0 with OpenReader or StraddlerViolation) immediately and
//     holds it until the end, so no prefix ever quiesces;
//   - p1 commits cfg.Increments increment transactions on x, back to
//     back;
//   - without StraddlerViolation, p2 then commits a read-only
//     transaction that reads the stale value x = Increments−StaleDepth.
//     Every increment committed before p2's read began, so real-time
//     order forces p2 after all of them — where only x = Increments is
//     feasible — and no legal serialization exists;
//   - with StraddlerViolation, p3 instead re-reads x = Increments
//     before committing, making its own read set inconsistent.
//
// The exact checker (CheckOpacity, one search over all transactions)
// always rejects every variant. The streaming checker's forced-
// frontier fallback propagates final snapshots across frontiers and
// re-checks the post-frontier window against them, so it also rejects
// the p2 variants — with or without the open reader — but it waives a
// straddler's reads once a frontier fires, so the StraddlerViolation
// variant is missed exactly when the increments outrun the budget.
// That residual window is the object under test.
func ViolatingStream(cfg StreamGenConfig) model.History {
	const (
		x = model.TVar(0)
		y = model.TVar(1)
		z = model.TVar(2)
	)
	k := cfg.Increments
	if k < 1 {
		k = 1
	}
	d := cfg.StaleDepth
	if d < 1 {
		d = 1
	}
	if d > k {
		d = k
	}
	if cfg.CrossVariable {
		inc := func(h model.History, i int) model.History {
			v := model.Value(i)
			return h.Append(
				model.Read(1, x), model.ValueResp(1, v),
				model.Write(1, x, v+1), model.OK(1),
				model.Read(1, y), model.ValueResp(1, v),
				model.Write(1, y, v+1), model.OK(1),
				model.TryCommit(1), model.Commit(1),
			)
		}
		h := make(model.History, 0, 12*k+14)
		h = h.Append(model.Read(3, z), model.ValueResp(3, 0))
		for i := 0; i < k-d; i++ {
			h = inc(h, i)
		}
		// p2 opens with the then-current y, stays open across the last
		// StaleDepth increments, and pairs it with a fresh x: each read
		// is individually current at some overlapping moment, but no
		// reachable snapshot has x = k and y = k−d together.
		h = h.Append(model.Read(2, y), model.ValueResp(2, model.Value(k-d)))
		for i := k - d; i < k; i++ {
			h = inc(h, i)
		}
		h = h.Append(
			model.Read(2, x), model.ValueResp(2, model.Value(k)),
			model.TryCommit(2), model.Commit(2),
		)
		return h.Append(model.TryCommit(3), model.Commit(3))
	}
	h := make(model.History, 0, 6*k+14)
	// The straddler: opens first, closes last.
	h = h.Append(model.Read(3, y), model.ValueResp(3, 0))
	if cfg.OpenReader || cfg.StraddlerViolation {
		h = h.Append(model.Read(3, x), model.ValueResp(3, 0))
	}
	for i := 0; i < k; i++ {
		v := model.Value(i)
		h = h.Append(
			model.Read(1, x), model.ValueResp(1, v),
			model.Write(1, x, v+1), model.OK(1),
			model.TryCommit(1), model.Commit(1),
		)
	}
	if cfg.StraddlerViolation {
		h = h.Append(model.Read(3, x), model.ValueResp(3, model.Value(k)))
	} else {
		h = h.Append(
			model.Read(2, x), model.ValueResp(2, model.Value(k-d)),
			model.TryCommit(2), model.Commit(2),
		)
	}
	return h.Append(model.TryCommit(3), model.Commit(3))
}
