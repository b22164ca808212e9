package server

import (
	"strconv"

	"livetm/internal/jsonscan"
)

// The hand-written halves of the per-transaction frames. appendJSON
// writes the object encoding/json writes for the struct — members in
// field order, omitempty members left out when zero, strings escaped
// as it escapes them. parseJSON fills the frame from an object in the
// scanner's subset and reports false for anything else, which
// JSONCodec.Decode then gives to encoding/json; what it set before
// giving up, encoding/json sets again. Op kinds and finish modes
// decode to the package's own constants, not to a new string each.

// object is Scanner.Object for frames with no required member.
func object(s *jsonscan.Scanner, keys []string, field func(i int) bool) bool {
	_, ok := s.Object(keys, field)
	return ok
}

func appendInt(dst []byte, member string, v int64) []byte {
	return strconv.AppendInt(append(dst, member...), v, 10)
}

func appendString(dst []byte, member, v string) []byte {
	return jsonscan.AppendString(append(dst, member...), v)
}

var opKeys = []string{"kind", "var", "val"}

func (o Op) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"kind":`, o.Kind)
	dst = appendInt(dst, `,"var":`, int64(o.Var))
	if o.Val != 0 {
		dst = appendInt(dst, `,"val":`, o.Val)
	}
	return append(dst, '}')
}

func (o *Op) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, opKeys, func(i int) bool {
		switch i {
		case 0:
			return s.String(&o.Kind, OpRead, OpWrite, OpIncr)
		case 1:
			return s.Int(&o.Var)
		default:
			return s.Int64(&o.Val)
		}
	})
}

var execRequestKeys = []string{"worker", "ops"}

func (f ExecRequest) appendJSON(dst []byte) []byte {
	dst = appendInt(dst, `{"worker":`, int64(f.Worker))
	if f.Ops == nil {
		return append(dst, `,"ops":null}`...)
	}
	dst = append(dst, `,"ops":[`...)
	for i, op := range f.Ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = op.appendJSON(dst)
	}
	return append(dst, "]}"...)
}

// parseJSON refills f.Ops in place, as encoding/json does, so a
// handler's scratch request allocates nothing once it has grown; each
// element is zeroed before it is filled.
func (f *ExecRequest) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, execRequestKeys, func(i int) bool {
		if i == 0 {
			return s.Int(&f.Worker)
		}
		ops := f.Ops[:0]
		if n := s.Count('{', ']'); ops == nil || cap(ops) < n {
			ops = make([]Op, 0, n)
		}
		if !s.Array(func() bool {
			ops = append(ops, Op{})
			return ops[len(ops)-1].parseJSON(s)
		}) {
			return false
		}
		f.Ops = ops
		return true
	})
}

var execResponseKeys = []string{"committed", "nocommit", "reads"}

func (f ExecResponse) appendJSON(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, `{"committed":`...), f.Committed)
	if f.NoCommit {
		dst = append(dst, `,"nocommit":true`...)
	}
	for i, v := range f.Reads {
		if i == 0 {
			dst = appendInt(dst, `,"reads":[`, v)
		} else {
			dst = appendInt(dst, `,`, v)
		}
	}
	if len(f.Reads) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// parseJSON sizes Reads from the frame, so the slice a caller is
// handed costs one allocation and is nobody else's storage.
func (f *ExecResponse) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, execResponseKeys, func(i int) bool {
		switch i {
		case 0:
			return s.Bool(&f.Committed)
		case 1:
			return s.Bool(&f.NoCommit)
		}
		reads := f.Reads[:0]
		if n := s.Count(',', ']') + 1; reads == nil || cap(reads) < n {
			reads = make([]int64, 0, n)
		}
		if !s.Array(func() bool {
			reads = append(reads, 0)
			return s.Int64(&reads[len(reads)-1])
		}) {
			return false
		}
		f.Reads = reads
		return true
	})
}

var errorResponseKeys = []string{"code", "error", "retry_after_ms"}

func (f ErrorResponse) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"code":`, f.Code)
	dst = appendString(dst, `,"error":`, f.Error)
	if f.RetryAfterMS != 0 {
		dst = appendInt(dst, `,"retry_after_ms":`, f.RetryAfterMS)
	}
	return append(dst, '}')
}

func (f *ErrorResponse) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, errorResponseKeys, func(i int) bool {
		switch i {
		case 0:
			return s.String(&f.Code)
		case 1:
			return s.String(&f.Error)
		default:
			return s.Int64(&f.RetryAfterMS)
		}
	})
}

var (
	workerKeys = []string{"worker"}
	txnKeys    = []string{"txn"}
)

func (f BeginRequest) appendJSON(dst []byte) []byte {
	return append(appendInt(dst, `{"worker":`, int64(f.Worker)), '}')
}

func (f *BeginRequest) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, workerKeys, func(int) bool { return s.Int(&f.Worker) })
}

func (f BeginResponse) appendJSON(dst []byte) []byte {
	return append(appendString(dst, `{"txn":`, f.Txn), '}')
}

func (f *BeginResponse) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, txnKeys, func(int) bool { return s.String(&f.Txn) })
}

var txOpRequestKeys = []string{"txn", "op"}

func (f TxOpRequest) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"txn":`, f.Txn)
	return append(f.Op.appendJSON(append(dst, `,"op":`...)), '}')
}

func (f *TxOpRequest) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, txOpRequestKeys, func(i int) bool {
		if i == 0 {
			return s.String(&f.Txn)
		}
		return f.Op.parseJSON(s)
	})
}

var txOpResponseKeys = []string{"val", "aborted"}

func (f TxOpResponse) appendJSON(dst []byte) []byte {
	dst = appendInt(dst, `{"val":`, f.Val)
	if f.Aborted {
		dst = append(dst, `,"aborted":true`...)
	}
	return append(dst, '}')
}

func (f *TxOpResponse) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, txOpResponseKeys, func(i int) bool {
		if i == 0 {
			return s.Int64(&f.Val)
		}
		return s.Bool(&f.Aborted)
	})
}

var txFinishRequestKeys = []string{"txn", "mode"}

func (f TxFinishRequest) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"txn":`, f.Txn)
	return append(appendString(dst, `,"mode":`, f.Mode), '}')
}

func (f *TxFinishRequest) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, txFinishRequestKeys, func(i int) bool {
		if i == 0 {
			return s.String(&f.Txn)
		}
		return s.String(&f.Mode, FinishCommit, FinishNoCommit, FinishAbandon)
	})
}

var txFinishResponseKeys = []string{"committed", "retrying", "code"}

func (f TxFinishResponse) appendJSON(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, `{"committed":`...), f.Committed)
	if f.Retrying {
		dst = append(dst, `,"retrying":true`...)
	}
	if f.Code != "" {
		dst = appendString(dst, `,"code":`, f.Code)
	}
	return append(dst, '}')
}

func (f *TxFinishResponse) parseJSON(s *jsonscan.Scanner) bool {
	return object(s, txFinishResponseKeys, func(i int) bool {
		switch i {
		case 0:
			return s.Bool(&f.Committed)
		case 1:
			return s.Bool(&f.Retrying)
		default:
			return s.String(&f.Code)
		}
	})
}
