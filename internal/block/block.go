// Package block cuts many small values out of a few shared slices, so a
// hot path that hands out one value per packet allocates once per block
// rather than once per value. The device kernel builds its packets this way
// and the DNS zone handler its answers.
//
// A cut is capacity-capped: an append by its holder reallocates instead of
// writing into the next cut. Blocks are never reused, only dropped for the
// next one: the garbage collector frees a block once nothing cut from it is
// held, and holding a cut pins its block.
package block

import "slices"

// Take cuts n zeroed elements from the block *blk, capacity-capped so that
// an append by their holder reallocates instead of running into the next
// cut. When the block lacks room it is replaced by a new one of about twice
// its capacity, between first and limit but at least n; the old block lives
// on for as long as anything cut from it does. slices.Grow rounds the new
// block up to the whole allocation the runtime makes for it: a block of
// pointerful elements carries an 8-byte malloc header, which would push a
// block that fills a size class exactly into the next one, leaving up to
// an eighth of that empty. The caller serialises calls on one block.
func Take[T any](blk *[]T, n, first, limit int) []T {
	b := *blk
	if cap(b)-len(b) < n {
		b = slices.Grow([]T(nil), max(min(max(2*cap(b), first), limit), n))
	}
	at := len(b)
	*blk = b[:at+n]
	return b[at : at+n : at+n]
}
