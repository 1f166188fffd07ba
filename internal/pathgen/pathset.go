package pathgen

import "fubar/internal/graph"

// PathSet is the ordered, de-duplicated set of candidate paths for one
// aggregate (§2.4: the set starts with the lowest-delay path and grows by
// three alternatives per iteration, typically ending at ten to fifteen).
// Lookups write a private scratch buffer, so a set is not safe for
// concurrent use, reads included.
type PathSet struct {
	paths []graph.Path
	index map[string]int
	limit int
	key   []byte // scratch for allocation-free index lookups
}

// NewPathSet returns an empty set. limit bounds the number of stored
// paths (0 = unbounded); once full, Add refuses new paths.
func NewPathSet(limit int) *PathSet {
	return &PathSet{index: make(map[string]int), limit: limit}
}

// Len reports the number of stored paths.
func (s *PathSet) Len() int { return len(s.paths) }

// Paths returns the stored paths in insertion order. The slice is shared;
// callers must not modify it.
func (s *PathSet) Paths() []graph.Path { return s.paths }

// Path returns the i-th stored path.
func (s *PathSet) Path(i int) graph.Path { return s.paths[i] }

// lookup finds p in the index through the scratch key buffer; the
// string(...) conversion in a map index does not allocate.
func (s *PathSet) lookup(p graph.Path) (int, bool) {
	s.key = p.AppendKey(s.key[:0])
	i, ok := s.index[string(s.key)]
	return i, ok
}

// Contains reports whether an equal path is already stored.
func (s *PathSet) Contains(p graph.Path) bool {
	_, ok := s.lookup(p)
	return ok
}

// IndexOf returns the position of an equal stored path, or -1.
func (s *PathSet) IndexOf(p graph.Path) int {
	if i, ok := s.lookup(p); ok {
		return i
	}
	return -1
}

// Add inserts the path if it is not already present and the limit allows,
// reporting whether it was inserted.
func (s *PathSet) Add(p graph.Path) bool {
	if _, ok := s.lookup(p); ok {
		return false
	}
	if s.limit > 0 && len(s.paths) >= s.limit {
		return false
	}
	s.index[string(s.key)] = len(s.paths)
	s.paths = append(s.paths, p)
	return true
}
