package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/tensor"
)

// Manifest format ("TBMF"): the durable form of a model in the
// content-addressed block store. Where TBM1 carries every weight byte
// inline, a manifest carries only each tensor's shape and the ordered
// hashes of its 64 KiB blocks — the bytes themselves live in the store,
// shared across every model that references them (arXiv 2201.10442).
//
//	magic "TBMF" | name | inShape | layerCount |
//	  per layer: tag | flag | tensorCount |
//	    per tensor: shape | elems | blockCount | blockCount × 32-byte hash
//
// Strings, shapes and varints reuse the TBM1 helpers; the layer tag and
// flag bytes carry exactly what writeLayer encodes (hasBias for Linear,
// im2col for Conv2D), so TBM1 ↔ manifest round-trips are lossless.

const manifestMagic = "TBMF"

// ManifestTensor names one tensor: its shape plus its block-store ref.
type ManifestTensor struct {
	Shape []int
	Ref   blockstore.TensorRef
}

// ManifestLayer is one layer: its TBM1 tag, its flag byte (hasBias /
// im2col; zero for parameter-less layers), and its tensors in wire order.
type ManifestLayer struct {
	Tag     byte
	Flag    byte
	Tensors []ManifestTensor
}

// Manifest is the block-store form of a model.
type Manifest struct {
	Name    string
	InShape []int
	Layers  []ManifestLayer
}

// Hashes returns every block hash the manifest references, with
// duplicates, in wire order.
func (mf *Manifest) Hashes() []blockstore.Hash {
	var out []blockstore.Hash
	for _, l := range mf.Layers {
		for _, t := range l.Tensors {
			out = append(out, t.Ref.Blocks...)
		}
	}
	return out
}

// BlockModel decomposes a model into content-addressed blocks, staging
// any blocks the store does not already hold, and returns the model's
// manifest plus the hashes that were new to the store (the ones the
// caller must make durable). No references are taken — pair with
// ModelFromManifest to pin the blocks, and Sweep on error to discard
// half-staged ones. Models with unsupported layer types fail cleanly.
func BlockModel(m *Model, st *blockstore.Store) (*Manifest, []blockstore.Hash, error) {
	mf := &Manifest{Name: m.ModelName, InShape: append([]int(nil), m.InShape...)}
	var fresh []blockstore.Hash
	intern := func(t *tensor.Tensor) (ManifestTensor, error) {
		ref, newHashes, err := st.Intern(t.Data())
		if err != nil {
			return ManifestTensor{}, err
		}
		fresh = append(fresh, newHashes...)
		return ManifestTensor{Shape: append([]int(nil), t.Shape()...), Ref: ref}, nil
	}
	for i, l := range m.Layers {
		var ml ManifestLayer
		var err error
		switch l := l.(type) {
		case *Linear:
			ml.Tag = tagLinear
			var w ManifestTensor
			if w, err = intern(l.W); err == nil {
				ml.Tensors = append(ml.Tensors, w)
				if l.B != nil {
					ml.Flag = 1
					var b ManifestTensor
					if b, err = intern(l.B); err == nil {
						ml.Tensors = append(ml.Tensors, b)
					}
				}
			}
		case *Conv2D:
			ml.Tag = tagConv2D
			var k ManifestTensor
			if k, err = intern(l.K); err == nil {
				ml.Tensors = append(ml.Tensors, k)
			}
		case ReLU:
			ml.Tag = tagReLU
		case Sigmoid:
			ml.Tag = tagSigmoid
		case Softmax:
			ml.Tag = tagSoftmax
		case Flatten:
			ml.Tag = tagFlatten
		default:
			err = fmt.Errorf("unsupported layer type %T", l)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("nn: blocking layer %d (%s): %w", i, l.Name(), err)
		}
		mf.Layers = append(mf.Layers, ml)
	}
	return mf, fresh, nil
}

// ModelFromManifest assembles a servable model from a manifest: each
// tensor's blocks are assembled into one contiguous slice (shared with
// every other model whose tensor is bit-identical) and the layer tensors
// alias those slices. Every tensor takes block/assembly references;
// release them with ReleaseManifest when the model is dropped. On error
// the references taken so far are rolled back.
func ModelFromManifest(mf *Manifest, st *blockstore.Store) (*Model, error) {
	var taken []blockstore.TensorRef
	rollback := func() {
		for _, r := range taken {
			st.Release(r)
		}
	}
	assemble := func(mt ManifestTensor) (*tensor.Tensor, error) {
		vol := 1
		for _, d := range mt.Shape {
			vol *= d
		}
		if len(mt.Shape) == 0 || vol != mt.Ref.Elems {
			return nil, fmt.Errorf("shape %v does not hold %d elems", mt.Shape, mt.Ref.Elems)
		}
		data, err := st.Assemble(mt.Ref)
		if err != nil {
			return nil, err
		}
		taken = append(taken, mt.Ref)
		return tensor.FromSlice(data, mt.Shape...), nil
	}
	layers := make([]Layer, 0, len(mf.Layers))
	for i, ml := range mf.Layers {
		var l Layer
		var err error
		switch ml.Tag {
		case tagLinear:
			if len(ml.Tensors) != 1+int(ml.Flag&1) {
				err = fmt.Errorf("linear with %d tensors, flag %d", len(ml.Tensors), ml.Flag)
				break
			}
			var w, b *tensor.Tensor
			if w, err = assemble(ml.Tensors[0]); err != nil {
				break
			}
			if w.Rank() != 2 {
				err = fmt.Errorf("linear weight must be 2-D, got %v", w.Shape())
				break
			}
			if ml.Flag&1 == 1 {
				if b, err = assemble(ml.Tensors[1]); err != nil {
					break
				}
				if b.Len() != w.Dim(0) {
					err = fmt.Errorf("linear bias length %d, want %d", b.Len(), w.Dim(0))
					break
				}
			}
			l = &Linear{W: w, B: b}
		case tagConv2D:
			if len(ml.Tensors) != 1 {
				err = fmt.Errorf("conv2d with %d tensors", len(ml.Tensors))
				break
			}
			var k *tensor.Tensor
			if k, err = assemble(ml.Tensors[0]); err != nil {
				break
			}
			if k.Rank() != 4 {
				err = fmt.Errorf("conv2d kernel must be 4-D, got %v", k.Shape())
				break
			}
			l = &Conv2D{K: k} // Flag bit 0, the retired im2col flag, is ignored
		case tagReLU:
			l = ReLU{}
		case tagSigmoid:
			l = Sigmoid{}
		case tagSoftmax:
			l = Softmax{}
		case tagFlatten:
			l = Flatten{}
		default:
			err = fmt.Errorf("unknown layer tag %d", ml.Tag)
		}
		if err != nil {
			rollback()
			return nil, fmt.Errorf("nn: manifest layer %d: %w", i, err)
		}
		layers = append(layers, l)
	}
	m, err := NewModel(mf.Name, mf.InShape, layers...)
	if err != nil {
		rollback()
		return nil, err
	}
	return m, nil
}

// ReleaseManifest drops the references ModelFromManifest took. Freed
// memory is reclaimed by the store's next Sweep.
func ReleaseManifest(mf *Manifest, st *blockstore.Store) {
	for _, l := range mf.Layers {
		for _, t := range l.Tensors {
			st.Release(t.Ref)
		}
	}
}

// EncodeManifest serialises a manifest in the TBMF format.
func EncodeManifest(mf *Manifest) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(manifestMagic)
	writeString(bw, mf.Name)
	writeShape(bw, mf.InShape)
	writeUvarint(bw, uint64(len(mf.Layers)))
	for _, l := range mf.Layers {
		bw.WriteByte(l.Tag)
		bw.WriteByte(l.Flag)
		writeUvarint(bw, uint64(len(l.Tensors)))
		for _, t := range l.Tensors {
			writeShape(bw, t.Shape)
			writeUvarint(bw, uint64(t.Ref.Elems))
			writeUvarint(bw, uint64(len(t.Ref.Blocks)))
			for _, h := range t.Ref.Blocks {
				bw.Write(h[:])
			}
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// DecodeManifest parses a TBMF manifest, validating every count against
// the same bounds the TBM1 reader enforces before anything is allocated
// from untrusted sizes.
func DecodeManifest(raw []byte) (*Manifest, error) {
	br := bufio.NewReader(bytes.NewReader(raw))
	magic := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nn: manifest magic: %w", err)
	}
	if string(magic) != manifestMagic {
		return nil, fmt.Errorf("nn: bad manifest magic %q", magic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("nn: manifest name: %w", err)
	}
	inShape, err := readShape(br)
	if err != nil {
		return nil, fmt.Errorf("nn: manifest input shape: %w", err)
	}
	layerCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if layerCount > 1<<16 {
		return nil, fmt.Errorf("nn: implausible layer count %d", layerCount)
	}
	mf := &Manifest{Name: name, InShape: inShape}
	for i := uint64(0); i < layerCount; i++ {
		var ml ManifestLayer
		if ml.Tag, err = br.ReadByte(); err != nil {
			return nil, err
		}
		if ml.Flag, err = br.ReadByte(); err != nil {
			return nil, err
		}
		tensorCount, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if tensorCount > 16 {
			return nil, fmt.Errorf("nn: implausible tensor count %d", tensorCount)
		}
		for j := uint64(0); j < tensorCount; j++ {
			var mt ManifestTensor
			if mt.Shape, err = readShape(br); err != nil {
				return nil, err
			}
			elems, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if elems == 0 || elems > 1<<33 {
				return nil, fmt.Errorf("nn: implausible tensor elems %d", elems)
			}
			mt.Ref.Elems = int(elems)
			blockCount, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if int(blockCount) != blockstore.BlockCount(mt.Ref.Elems) {
				return nil, fmt.Errorf("nn: %d blocks for %d elems", blockCount, elems)
			}
			mt.Ref.Blocks = make([]blockstore.Hash, blockCount)
			for k := range mt.Ref.Blocks {
				if _, err := io.ReadFull(br, mt.Ref.Blocks[k][:]); err != nil {
					return nil, err
				}
			}
			ml.Tensors = append(ml.Tensors, mt)
		}
		mf.Layers = append(mf.Layers, ml)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("nn: trailing bytes after manifest")
	}
	return mf, nil
}
