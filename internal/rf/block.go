package rf

// Block is a columnar buffer of samples: Ticks rows of Streams float64
// values in one contiguous tick-major allocation. SampleBlock fills one
// without per-tick allocation; the simulator reads it column by column
// into its int8 traces.
//
// The zero value is an empty block ready for Reset.
type Block struct {
	ticks, streams int
	data           []float64
}

// Reset shapes the block to ticks×streams, reusing the backing array
// when it is large enough and allocating once otherwise. The contents
// after Reset are unspecified; callers overwrite every row.
func (b *Block) Reset(ticks, streams int) {
	n := ticks * streams
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	b.data = b.data[:n]
	b.ticks, b.streams = ticks, streams
}

// Ticks returns the number of rows.
func (b *Block) Ticks() int { return b.ticks }

// Streams returns the number of values per row.
func (b *Block) Streams() int { return b.streams }

// Row returns tick t's samples as a view into the backing array: one
// value per stream, contiguous, valid until the next Reset.
func (b *Block) Row(t int) []float64 {
	return b.data[t*b.streams : (t+1)*b.streams]
}

// At returns stream k's sample at tick t.
func (b *Block) At(t, k int) float64 { return b.data[t*b.streams+k] }

// Data returns the whole tick-major backing slice (row t occupies
// [t*Streams, (t+1)*Streams)).
func (b *Block) Data() []float64 { return b.data }
