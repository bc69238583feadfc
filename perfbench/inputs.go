package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lafdbscan"
)

// op is one request of the open-loop serving schedule.
type op struct {
	insert bool
	// due is the request's send time as an offset from the window start.
	due time.Duration
	// vectors is the request payload.
	vectors [][]float32
}

// inputs is everything a run feeds the program, generated from the seed
// alone.
type inputs struct {
	// train feeds estimator training; test is the set that is clustered
	// and served.
	train, test [][]float32
	// sample indexes the test points whose core flags are rechecked.
	sample []int
	// probe is predicted through the server and the library, and again
	// after the restart.
	probe [][]float32
	// warmup is the set-up insert that builds the model's overlay.
	warmup [][]float32
	// schedule is the serving window's requests in due order.
	schedule []op
}

// makeInputs generates a workload's inputs. The request vectors are
// out-of-sample points drawn from the training split.
func makeInputs(w workload, seed int64, window time.Duration) (*inputs, error) {
	data := w.generate(w.total, seed)
	train, test, err := lafdbscan.Split(data, 0.8, seed+1)
	if err != nil {
		return nil, fmt.Errorf("splitting %s: %w", data.Name, err)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	in := &inputs{train: train.Vectors, test: test.Vectors}
	in.sample = rng.Perm(len(in.test))[:checkSample]

	pool := train.Vectors
	perm := rng.Perm(len(pool))
	next := 0
	draw := func(k int) [][]float32 {
		out := make([][]float32, k)
		for i := range out {
			out[i] = pool[perm[next%len(perm)]]
			next++
		}
		return out
	}
	in.probe = draw(probeSize)
	in.warmup = draw(insertSize)

	// Predicts arrive evenly spaced, so the schedule has no bursts. Each
	// insert lands at a uniformly random point of its own slot, so inserts
	// meet predicts at every offset rather than on a fixed beat that would
	// make their latency hinge on which of two requests wins a race.
	secs := window.Seconds()
	nPredict := int(math.Round(predictPerSec * secs))
	nInsert := int(math.Round(insertPerSec * secs))
	ops := make([]op, 0, nPredict+nInsert)
	for i := 0; i < nPredict; i++ {
		ops = append(ops, op{due: time.Duration(float64(i) / predictPerSec * float64(time.Second))})
	}
	for j := 0; j < nInsert; j++ {
		at := (float64(j) + rng.Float64()) / insertPerSec
		ops = append(ops, op{insert: true, due: time.Duration(at * float64(time.Second))})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	// Draw payloads in schedule order so the vector stream is a function
	// of the seed and the rates only.
	for i := range ops {
		if ops[i].insert {
			ops[i].vectors = draw(insertSize)
		} else {
			ops[i].vectors = draw(predictSize)
		}
	}
	in.schedule = ops
	return in, nil
}

// windowInserts is the number of points the window's inserts carry.
func (in *inputs) windowInserts() int {
	n := 0
	for _, o := range in.schedule {
		if o.insert {
			n += len(o.vectors)
		}
	}
	return n
}

// digest hashes every generated value, so tests can assert that a seed
// reproduces its inputs byte for byte.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putVecs := func(vs [][]float32) {
		putInt(int64(len(vs)))
		for _, v := range vs {
			putInt(int64(len(v)))
			for _, x := range v {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(x))
				h.Write(buf[:4])
			}
		}
	}
	putVecs(in.train)
	putVecs(in.test)
	putInt(int64(len(in.sample)))
	for _, i := range in.sample {
		putInt(int64(i))
	}
	putVecs(in.probe)
	putVecs(in.warmup)
	putInt(int64(len(in.schedule)))
	for _, o := range in.schedule {
		if o.insert {
			putInt(1)
		} else {
			putInt(0)
		}
		putInt(int64(o.due))
		putVecs(o.vectors)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
