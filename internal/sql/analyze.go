package sql

// Statement analysis used by the read router, the shard planner and the
// engine's key lookups: which statements are reads, whether a SELECT pins
// a key column (to a single shard, or to one heap key), which WITH binding
// its FROM names, and what shape of merge its scatter needs.

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

// CTEBody returns the body of the WITH binding that FROM names, carrying
// only the bindings before it as its own WITH clause, so chained CTEs
// resolve left to right and cycles are impossible. The last binding with
// the name wins. ok is false when FROM names a base table; any WITH
// bindings are then unused.
func (s *Select) CTEBody() (body *Select, ok bool) {
	for i := len(s.With) - 1; i >= 0; i-- {
		if s.With[i].Name == s.From {
			b := *s.With[i].Query
			b.With = s.With[:i]
			return &b, true
		}
	}
	return nil, false
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
