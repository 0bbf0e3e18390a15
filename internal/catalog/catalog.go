// Package catalog is the database's metadata store: registered tables
// (schema + heap location) and registered models. Models support multiple
// versions with accuracy/size metadata, enabling the accuracy-aware model
// selection of Sec. 4 — the storage optimizer keeps compressed variants of
// a model and the query layer picks the smallest version that satisfies an
// accuracy SLA.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tensorbase/internal/nn"
	"tensorbase/internal/table"
)

// TableEntry describes one registered table.
type TableEntry struct {
	Name string
	Heap *table.Heap
}

// ModelVersion is one stored variant of a model: the original or a
// compressed (pruned/quantised) edition with its measured trade-off.
type ModelVersion struct {
	Model *nn.Model
	// Tag labels the variant ("original", "quantized-8bit", ...).
	Tag string
	// Accuracy is the measured accuracy of this variant on its
	// validation set, in [0,1]; 0 if unmeasured.
	Accuracy float64
	// Bytes is the parameter size of this variant.
	Bytes int64
}

// ModelEntry groups a model's versions under one name. Versions[0] is the
// original.
type ModelEntry struct {
	Name     string
	Versions []ModelVersion
	// TrainedOn optionally records the training table, binding the model
	// to its data per Sec. 4.
	TrainedOn string
}

// ErrNoTable is the error a statement naming an unregistered table gets,
// wrapped with the table's name.
var ErrNoTable = errors.New("catalog: no table")

// Catalog is a thread-safe registry of tables and models.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableEntry
	models map[string]*ModelEntry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*TableEntry),
		models: make(map[string]*ModelEntry),
	}
}

// CreateTable registers heap under name.
func (c *Catalog) CreateTable(name string, heap *table.Heap) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		return fmt.Errorf("catalog: empty table name")
	}
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("catalog: table %q already exists", name)
	}
	c.tables[name] = &TableEntry{Name: name, Heap: heap}
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*TableEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoTable, name)
	}
	return t, nil
}

// DropTable removes the named table from the catalog. Storage reclamation
// is the engine's job: it walks the heap's page chain and hands every page
// to the disk free list before calling this.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("%w %q", ErrNoTable, name)
	}
	delete(c.tables, name)
	return nil
}

// Tables returns the registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropModel removes the named model (all versions) from the catalog.
// Weight-block reclamation is the engine's job: it releases the model's
// manifest references and sweeps the block store after calling this.
func (c *Catalog) DropModel(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.models[name]; !ok {
		return fmt.Errorf("catalog: no model %q", name)
	}
	delete(c.models, name)
	return nil
}

// RegisterModel stores m as the original version under its model name.
func (c *Catalog) RegisterModel(m *nn.Model, accuracy float64, trainedOn string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := m.Name()
	if name == "" {
		return fmt.Errorf("catalog: model has no name")
	}
	if _, dup := c.models[name]; dup {
		return fmt.Errorf("catalog: model %q already registered", name)
	}
	c.models[name] = &ModelEntry{
		Name:      name,
		TrainedOn: trainedOn,
		Versions: []ModelVersion{{
			Model:    m,
			Tag:      "original",
			Accuracy: accuracy,
			Bytes:    m.ParamBytes(),
		}},
	}
	return nil
}

// AddVersion attaches a compressed variant to a registered model, sized by
// its in-memory parameters.
func (c *Catalog) AddVersion(name string, m *nn.Model, tag string, accuracy float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.models[name]
	if !ok {
		return fmt.Errorf("catalog: no model %q", name)
	}
	for _, v := range e.Versions {
		if v.Tag == tag {
			return fmt.Errorf("catalog: model %q already has version %q", name, tag)
		}
	}
	e.Versions = append(e.Versions, ModelVersion{
		Model: m, Tag: tag, Accuracy: accuracy, Bytes: m.ParamBytes(),
	})
	return nil
}

// Model returns the original version of the named model.
func (c *Catalog) Model(name string) (*nn.Model, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.models[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no model %q", name)
	}
	return e.Versions[0].Model, nil
}

// ModelEntryFor returns the full entry for the named model.
func (c *Catalog) ModelEntryFor(name string) (*ModelEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.models[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no model %q", name)
	}
	return e, nil
}

// SelectVersion implements accuracy-aware version selection: among the
// versions meeting minAccuracy, it returns the smallest by parameter size;
// versions with unmeasured accuracy qualify only when minAccuracy is 0.
func (c *Catalog) SelectVersion(name string, minAccuracy float64) (*ModelVersion, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.models[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no model %q", name)
	}
	var best *ModelVersion
	for i := range e.Versions {
		v := &e.Versions[i]
		if v.Accuracy < minAccuracy {
			continue
		}
		if best == nil || v.Bytes < best.Bytes {
			best = v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("catalog: no version of %q meets accuracy %.3f", name, minAccuracy)
	}
	return best, nil
}

// Models returns the registered model names, sorted.
func (c *Catalog) Models() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.models))
	for n := range c.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
