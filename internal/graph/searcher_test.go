package graph

import (
	"reflect"
	"testing"

	"repro/internal/pq"
)

// TestSearcherOwnsItsCacheLines guards the Searcher's layout. Parallel
// workers hold one Searcher each, and every heap push, pop and reset
// writes its scratch, so that state must share no cache line with
// whatever the allocator places beside it: at least 64 bytes of pad
// before the first field and after the last, and every heap held by
// value, not as a small allocation of its own that can land next to
// another worker's.
func TestSearcherOwnsItsCacheLines(t *testing.T) {
	const line = 64
	typ := reflect.TypeOf(Searcher{})
	var fields []reflect.StructField
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			fields = append(fields, f)
		}
	}
	first, last := fields[0], fields[len(fields)-1]
	if first.Offset < line {
		t.Errorf("first field %s at offset %d: want at least %d bytes of pad before it", first.Name, first.Offset, line)
	}
	if end := last.Offset + last.Type.Size(); typ.Size()-end < line {
		t.Errorf("last field %s ends at byte %d of %d: want at least %d bytes of pad after it", last.Name, end, typ.Size(), line)
	}
	heap := reflect.TypeOf(pq.IndexedMinHeap{})
	heaps := 0
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Type == heap:
				heaps++
			case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
				t.Errorf("%s.%s holds %s by pointer", path, f.Name, f.Type.Elem())
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(typ, "Searcher")
	if heaps != 3 {
		t.Errorf("Searcher holds %d heaps by value, want 3 (one one-sided, two bidirectional)", heaps)
	}
}
