// Package sealcheck holds the two reflect-driven checks every layer's sealed
// state struct must pass (kernel's kernelState/procState/threadState, core's
// detState): the type is plain data, and its clone() is deep. A checkpoint
// seals such a struct by cloning it whole, so these checks are what keep a
// field added later from aliasing a live kernel or from being shared between
// a seal and the run that continues past it. Test support only.
package sealcheck

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// Plain fails t for every pointer, func, chan, interface or unsafe pointer
// reachable from typ: a value of such a type could alias — and pin — the
// live object it was sealed from.
func Plain(t testing.TB, typ reflect.Type) {
	t.Helper()
	plain(t, typ, typ.String(), map[reflect.Type]bool{})
}

func plain(t testing.TB, typ reflect.Type, path string, seen map[reflect.Type]bool) {
	t.Helper()
	if seen[typ] {
		return
	}
	seen[typ] = true
	switch typ.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		t.Errorf("%s is a %s (%s): sealed state must be plain data", path, typ.Kind(), typ)
	case reflect.Slice, reflect.Array:
		plain(t, typ.Elem(), path+"[]", seen)
	case reflect.Map:
		plain(t, typ.Key(), path+"[key]", seen)
		plain(t, typ.Elem(), path+"[]", seen)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			plain(t, typ.Field(i).Type, path+"."+typ.Field(i).Name, seen)
		}
	}
}

// CloneIsDeep fills an S with non-empty slices and maps, clones it, overwrites
// every slice element and map entry reachable from the clone, and fails t
// for each field of the source that changed: a slice or map field clone
// copies only by header is caught here instead of in a resumed run.
func CloneIsDeep[S any](t testing.TB, clone func(S) S) {
	t.Helper()
	var src, want S
	n := 0
	fill(reflect.ValueOf(&src).Elem(), &n)
	n = 0
	fill(reflect.ValueOf(&want).Elem(), &n)

	c := clone(src)
	if !reflect.DeepEqual(c, want) {
		t.Errorf("clone of %T differs from its source", src)
	}
	n = 1 << 20
	overwrite(reflect.ValueOf(&c).Elem(), &n)

	sv, wv := reflect.ValueOf(&src).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(settable(sv.Field(i)).Interface(), settable(wv.Field(i)).Interface()) {
			t.Errorf("%T.%s: writing through the clone changed the source — clone() must deep-copy it",
				src, sv.Type().Field(i).Name)
		}
	}
}

// settable lifts reflect's ban on writing unexported fields: the state
// structs are unexported by design and v is always addressable here.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// fill sets every scalar reachable from v to a distinct non-zero value drawn
// from *n, and gives every slice two elements and every map two entries.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n))
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(key, n)
			fill(val, n)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(settable(v.Field(i)), n)
		}
	}
	// Anything else is not plain data: Plain reports it, it stays zero here.
}

// overwrite replaces every scalar reachable from v in place — slice elements
// in their existing backing array, map entries under their existing keys —
// so any storage v shares with another value shows up there.
func overwrite(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			overwrite(v.Index(i), n)
		}
	case reflect.Map:
		for _, key := range v.MapKeys() {
			val := reflect.New(v.Type().Elem()).Elem()
			val.Set(v.MapIndex(key))
			overwrite(val, n)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			overwrite(settable(v.Field(i)), n)
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		fill(v, n)
	}
}
