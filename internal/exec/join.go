package exec

import (
	"fmt"
	"sort"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/table"
)

// BandJoin is the similarity join of Sec. 7.2.1: it matches left and right
// tuples whose Float64 join columns differ by at most eps, using sorted
// inputs and a sliding band — O((n+m)·log + output) instead of the
// nested-loop O(n·m).
type BandJoin struct {
	left, right       Operator
	leftCol, rightCol string
	eps               float64
	schema            *table.Schema
	leftIdx, rightIdx int

	leftRows  []table.Tuple // sorted by join key
	rightRows []table.Tuple // sorted by join key
	li        int           // current left row
	lo        int           // left edge of the right-side band
	bandPos   int           // cursor within the band for the current left row
	tok       *lifecycle.Token
}

// NewBandJoin joins left and right where |leftCol - rightCol| <= eps.
func NewBandJoin(left, right Operator, leftCol, rightCol string, eps float64) (*BandJoin, error) {
	li := left.Schema().ColIndex(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("exec: band join: unknown left column %q", leftCol)
	}
	ri := right.Schema().ColIndex(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("exec: band join: unknown right column %q", rightCol)
	}
	if left.Schema().Cols[li].Type != table.Float64 || right.Schema().Cols[ri].Type != table.Float64 {
		return nil, fmt.Errorf("exec: band join requires DOUBLE key columns")
	}
	if eps < 0 {
		return nil, fmt.Errorf("exec: band join epsilon must be non-negative, got %g", eps)
	}
	return &BandJoin{
		left: left, right: right,
		leftCol: leftCol, rightCol: rightCol, eps: eps,
		schema:  left.Schema().Concat(right.Schema()),
		leftIdx: li, rightIdx: ri,
	}, nil
}

// Schema implements Operator.
func (j *BandJoin) Schema() *table.Schema { return j.schema }

// SetCancel implements Cancellable; the token also reaches both inputs,
// which Open drains wholesale.
func (j *BandJoin) SetCancel(tok *lifecycle.Token) {
	j.tok = tok
	SetCancel(j.left, tok)
	SetCancel(j.right, tok)
}

// Open implements Operator: it materialises and sorts both inputs.
func (j *BandJoin) Open() error {
	var err error
	j.leftRows, err = Collect(j.left)
	if err != nil {
		return err
	}
	j.rightRows, err = Collect(j.right)
	if err != nil {
		return err
	}
	li, ri := j.leftIdx, j.rightIdx
	sort.SliceStable(j.leftRows, func(a, b int) bool {
		return j.leftRows[a][li].Float < j.leftRows[b][li].Float
	})
	sort.SliceStable(j.rightRows, func(a, b int) bool {
		return j.rightRows[a][ri].Float < j.rightRows[b][ri].Float
	})
	j.li, j.lo, j.bandPos = 0, 0, 0
	if len(j.leftRows) > 0 {
		j.advanceBand()
	}
	return nil
}

// advanceBand moves lo to the first right row within eps of the current
// left row and positions bandPos there.
func (j *BandJoin) advanceBand() {
	v := j.leftRows[j.li][j.leftIdx].Float
	for j.lo < len(j.rightRows) && j.rightRows[j.lo][j.rightIdx].Float < v-j.eps {
		j.lo++
	}
	j.bandPos = j.lo
}

// Next implements Operator.
func (j *BandJoin) Next() (table.Tuple, bool, error) {
	for j.li < len(j.leftRows) {
		if err := j.tok.Err(); err != nil {
			return nil, false, err
		}
		v := j.leftRows[j.li][j.leftIdx].Float
		if j.bandPos < len(j.rightRows) && j.rightRows[j.bandPos][j.rightIdx].Float <= v+j.eps {
			r := j.rightRows[j.bandPos]
			j.bandPos++
			return concatTuple(j.leftRows[j.li], r), true, nil
		}
		j.li++
		if j.li < len(j.leftRows) {
			j.advanceBand()
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (j *BandJoin) Close() error {
	j.leftRows, j.rightRows = nil, nil
	return nil
}

// concatTuple returns a join output row: a's columns followed by b's.
func concatTuple(a, b table.Tuple) table.Tuple {
	out := make(table.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}
