package sql

// Statement analysis used by the read router, the shard planner and the
// engine's key lookups: which statements are reads, whether a SELECT pins
// a key column (to a single shard, or to one heap key), and what shape of
// merge its scatter needs.

// ReadOnly reports whether the parsed statement only reads. This — not a
// text-prefix check — is what routing must classify by: `WITH ... SELECT`,
// `(SELECT ...)`, and comment-prefixed reads are all reads.
func ReadOnly(st Statement) bool {
	_, ok := st.(*Select)
	return ok
}

// KeyPin returns the literal the WHERE clause pins the shard key column to
// with `=`, if any. A pinned SELECT touches exactly one shard. CTE reads
// are never pinned here: the outer FROM names the CTE, not a sharded table.
func (s *Select) KeyPin(key string) (Literal, bool) {
	if len(s.With) > 0 || s.Where == nil || s.Where.Op != "=" || s.Where.Col != key {
		return Literal{}, false
	}
	return s.Where.Lit, true
}

// HasAggregate reports whether any projection item is an aggregate.
func (s *Select) HasAggregate() bool {
	for _, it := range s.Items {
		if it.Agg != nil {
			return true
		}
	}
	return false
}

// HasPredict reports whether any projection item is a PREDICT call.
func (s *Select) HasPredict() bool {
	for _, it := range s.Items {
		if it.Predict != nil {
			return true
		}
	}
	return false
}
