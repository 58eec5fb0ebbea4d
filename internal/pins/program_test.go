package pins

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomProgram appends n random cycles (about one in five all-low) of
// up to maxPins pins, enough to span several storage chunks.
func randomProgram(rng *rand.Rand, n, maxPins int) *Program {
	p := &Program{}
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			p.Append()
			continue
		}
		pins := make([]int, 1+rng.Intn(maxPins))
		for j := range pins {
			pins[j] = 1 + rng.Intn(40)
		}
		p.Append(pins...)
	}
	return p
}

// snapshot deep-copies every cycle, for comparing after later appends.
func snapshot(p *Program) [][]int {
	out := make([][]int, p.Len())
	for i := range out {
		out[i] = slices.Clone([]int(p.Cycle(i)))
	}
	return out
}

func sameCycles(t *testing.T, what string, p *Program, want [][]int) {
	t.Helper()
	if p.Len() != len(want) {
		t.Fatalf("%s: %d cycles, want %d", what, p.Len(), len(want))
	}
	for i, w := range want {
		if got := p.Cycle(i); !slices.Equal(got, w) {
			t.Fatalf("%s: cycle %d = %v, want %v", what, i, got, w)
		}
	}
}

// TestProgramCyclesImmutable: a slice returned by Cycle keeps its
// contents through any number of later Appends, across chunk
// boundaries, and has no spare capacity an append could write into.
func TestProgramCyclesImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := randomProgram(rng, 50, 12)
	held := make([]Activation, p.Len())
	for i := range held {
		held[i] = p.Cycle(i)
		if cap(held[i]) != len(held[i]) {
			t.Fatalf("cycle %d: cap %d != len %d", i, cap(held[i]), len(held[i]))
		}
	}
	want := snapshot(p)
	more := randomProgram(rng, 5000, 30)
	for i := 0; i < more.Len(); i++ {
		p.Append(more.Cycle(i)...)
	}
	for i, act := range held {
		if !slices.Equal(act, want[i]) {
			t.Fatalf("cycle %d changed after appends: %v, want %v", i, act, want[i])
		}
	}
}

// TestProgramEmptyCyclesNil: an all-low cycle is stored as nil, whether
// appended directly or read back from text.
func TestProgramEmptyCyclesNil(t *testing.T) {
	var p Program
	p.Append(3, 1)
	p.Append()
	p.Append(2)
	if p.Cycle(1) != nil {
		t.Fatalf("empty cycle = %#v, want nil", p.Cycle(1))
	}
	back, err := Read(bytes.NewBufferString("1 3\n\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if back.Cycle(1) != nil {
		t.Fatalf("read empty cycle = %#v, want nil", back.Cycle(1))
	}
}

// TestProgramCloneIndependent: a clone is DeepEqual to its original and
// holds no spare chunk capacity, and appending to either leaves the
// other untouched.
func TestProgramCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProgram(rng, 40, 6)
	base := snapshot(p)
	c := p.Clone()
	if !reflect.DeepEqual(c, p) {
		t.Fatal("fresh clone is not DeepEqual to its original")
	}
	if cap(c.chunk) != len(c.chunk) {
		t.Errorf("clone keeps %d spare chunk slots alive", cap(c.chunk)-len(c.chunk))
	}
	c.Append(1, 2, 3)
	p.Append(7, 8)
	c.Append(4)
	p.Append(9)
	sameCycles(t, "original", p, append(slices.Clone(base), []int{7, 8}, []int{9}))
	sameCycles(t, "clone", c, append(slices.Clone(base), []int{1, 2, 3}, []int{4}))
}

// TestProgramReadWriteByteIdentical: WriteTo -> Read -> WriteTo
// reproduces the exact bytes, over several chunks of random cycles.
func TestProgramReadWriteByteIdentical(t *testing.T) {
	p := randomProgram(rand.New(rand.NewSource(3)), 3000, 20)
	var first, second bytes.Buffer
	if _, err := p.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Read/WriteTo round trip changed the program text")
	}
	sameCycles(t, "read back", back, snapshot(p))
}

// TestProgramZeroPinDeepEqual: a program of only all-low cycles holds no
// chunk, so the cold program, its memo-style Clone and its text round
// trip are all reflect.DeepEqual.
func TestProgramZeroPinDeepEqual(t *testing.T) {
	cold := &Program{}
	for i := 0; i < 4; i++ {
		cold.Append()
	}
	hit := cold.Clone()
	if !reflect.DeepEqual(hit, cold) {
		t.Errorf("clone %#v != cold %#v", hit, cold)
	}
	var buf bytes.Buffer
	if _, err := cold.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cold) {
		t.Errorf("read back %#v != cold %#v", back, cold)
	}
}
