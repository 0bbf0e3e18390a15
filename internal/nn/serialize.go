package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tensorbase/internal/tensor"
)

// Binary model format ("TBM1"): loading a model into the database stores it
// in this format in the catalog, mirroring how the paper's netsDB prototype
// loads models as analyzable operator graphs.
//
//	magic "TBM1" | name | inShape | layerCount | layers...
//
// Strings are uvarint length + bytes; shapes are uvarint rank + uvarint
// dims; tensors are shape + raw little-endian float32 payload.

const modelMagic = "TBM1"

// Layer type tags in the wire format.
const (
	tagLinear  = byte(1)
	tagConv2D  = byte(2)
	tagReLU    = byte(3)
	tagSigmoid = byte(4)
	tagSoftmax = byte(5)
	tagFlatten = byte(6)
)

// Save writes the model to w in the TBM1 binary format.
func Save(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(modelMagic); err != nil {
		return err
	}
	writeString(bw, m.ModelName)
	writeShape(bw, m.InShape)
	writeUvarint(bw, uint64(len(m.Layers)))
	for i, l := range m.Layers {
		if err := writeLayer(bw, l); err != nil {
			return fmt.Errorf("nn: save layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return bw.Flush()
}

func writeLayer(bw *bufio.Writer, l Layer) error {
	switch l := l.(type) {
	case *Linear:
		bw.WriteByte(tagLinear)
		writeTensor(bw, l.W)
		hasBias := byte(0)
		if l.B != nil {
			hasBias = 1
		}
		bw.WriteByte(hasBias)
		if l.B != nil {
			writeTensor(bw, l.B)
		}
	case *Conv2D:
		bw.WriteByte(tagConv2D)
		writeTensor(bw, l.K)
		bw.WriteByte(0) // the retired im2col flag; readers ignore it
	case ReLU:
		bw.WriteByte(tagReLU)
	case Sigmoid:
		bw.WriteByte(tagSigmoid)
	case Softmax:
		bw.WriteByte(tagSoftmax)
	case Flatten:
		bw.WriteByte(tagFlatten)
	default:
		return fmt.Errorf("unsupported layer type %T", l)
	}
	return nil
}

// Load reads a model in the TBM1 binary format.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, fmt.Errorf("nn: bad magic %q, want %q", magic, modelMagic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("nn: reading name: %w", err)
	}
	inShape, err := readShape(br)
	if err != nil {
		return nil, fmt.Errorf("nn: reading input shape: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("nn: reading layer count: %w", err)
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	layers := make([]Layer, 0, count)
	for i := uint64(0); i < count; i++ {
		l, err := readLayer(br)
		if err != nil {
			return nil, fmt.Errorf("nn: reading layer %d: %w", i, err)
		}
		layers = append(layers, l)
	}
	return NewModel(name, inShape, layers...)
}

func readLayer(br *bufio.Reader) (Layer, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLinear:
		w, err := readTensor(br)
		if err != nil {
			return nil, err
		}
		if w.Rank() != 2 {
			return nil, fmt.Errorf("linear weight must be 2-D, got %v", w.Shape())
		}
		hasBias, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		l := &Linear{W: w}
		if hasBias == 1 {
			b, err := readTensor(br)
			if err != nil {
				return nil, err
			}
			if b.Len() != w.Dim(0) {
				return nil, fmt.Errorf("linear bias length %d, want %d", b.Len(), w.Dim(0))
			}
			l.B = b
		}
		return l, nil
	case tagConv2D:
		k, err := readTensor(br)
		if err != nil {
			return nil, err
		}
		if k.Rank() != 4 {
			return nil, fmt.Errorf("conv2d kernel must be 4-D, got %v", k.Shape())
		}
		// The flag byte once chose an im2col execution path; every conv
		// runs that path now, so the byte is read and ignored.
		if _, err := br.ReadByte(); err != nil {
			return nil, err
		}
		return &Conv2D{K: k}, nil
	case tagReLU:
		return ReLU{}, nil
	case tagSigmoid:
		return Sigmoid{}, nil
	case tagSoftmax:
		return Softmax{}, nil
	case tagFlatten:
		return Flatten{}, nil
	default:
		return nil, fmt.Errorf("unknown layer tag %d", tag)
	}
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeString(bw *bufio.Writer, s string) {
	writeUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeShape(bw *bufio.Writer, shape []int) {
	writeUvarint(bw, uint64(len(shape)))
	for _, d := range shape {
		writeUvarint(bw, uint64(d))
	}
}

func readShape(br *bufio.Reader) ([]int, error) {
	rank, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if rank == 0 || rank > 8 {
		return nil, fmt.Errorf("implausible tensor rank %d", rank)
	}
	shape := make([]int, rank)
	vol := uint64(1)
	for i := range shape {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if d > 1<<31 {
			return nil, fmt.Errorf("implausible dimension %d", d)
		}
		shape[i] = int(d)
		// Pre-multiply bound: `vol *= d` with int arithmetic can wrap past
		// the volume check (2^33 × 2^31 ≡ 0 mod 2^64), letting a hostile
		// header demand an enormous allocation downstream.
		if d != 0 && vol > (1<<33)/d {
			return nil, fmt.Errorf("implausible tensor volume")
		}
		vol *= d
	}
	return shape, nil
}

func writeTensor(bw *bufio.Writer, t *tensor.Tensor) {
	writeShape(bw, t.Shape())
	var buf [4]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		bw.Write(buf[:])
	}
}

// readPayload reads exactly n bytes in bounded chunks. Growing the buffer
// only as data actually arrives means a corrupt header claiming a huge
// tensor fails with an EOF after at most one chunk past the real input,
// instead of allocating the claimed size up front.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		start := len(buf)
		buf = append(buf, make([]byte, min(n-start, chunk))...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readTensor(br *bufio.Reader) (*tensor.Tensor, error) {
	shape, err := readShape(br)
	if err != nil {
		return nil, err
	}
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	// Materialise the payload before tensor.New so the allocation is
	// backed by bytes that actually exist in the input.
	payload, err := readPayload(br, 4*vol)
	if err != nil {
		return nil, err
	}
	t := tensor.New(shape...)
	data := t.Data()
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return t, nil
}
