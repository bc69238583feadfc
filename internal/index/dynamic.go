package index

import "slices"

// This file is the index layer's mutation path, the substrate of online
// model maintenance (Model.Insert / Model.Remove). BruteForce is the only
// mutable index: its structure is the point slice itself, so it mutates
// natively and always answers exactly as a freshly built scan over the
// current points would. Ids follow the compacting convention of the point
// set — Insert appends at the end (new ids len..len+k-1), Delete(id)
// removes one point and shifts every id above it down by one.
//
// The index retains and mutates the point slice it was built over, so
// callers sharing that slice with other readers must hand it an owned copy.

// Insert appends vectors to the indexed set; the new points get ids
// len..len+k-1 in order.
func (b *BruteForce) Insert(vecs [][]float32) {
	b.points = append(b.points, vecs...)
}

// Delete removes the point with the given id; ids above it shift down by
// one, matching a slices.Delete on the underlying point set.
func (b *BruteForce) Delete(id int) {
	b.points = slices.Delete(b.points, id, id+1)
}

// DeleteMany removes a batch of ids (sorted ascending, no duplicates) in
// one compaction pass — O(n) where a Delete loop would pay O(k·n) — with
// the same result as k successive Deletes applied highest id first.
func (b *BruteForce) DeleteMany(ids []int) {
	out := b.points[:0]
	k := 0
	for i, p := range b.points {
		if k < len(ids) && ids[k] == i {
			k++
			continue
		}
		out = append(out, p)
	}
	clear(b.points[len(out):]) // release the tail's vector references
	b.points = out
}
