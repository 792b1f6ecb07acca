package adt

import (
	"reflect"
	"testing"

	"lintime/internal/spec"
)

// fingerprintTrail applies steps in order from the initial state and
// returns the fingerprint after each step, with consecutive repeats
// collapsed so every listed string is a distinct state the run reached.
func fingerprintTrail(dt spec.DataType, steps []spec.Instance) []string {
	s := dt.Initial()
	trail := []string{s.Fingerprint()}
	for _, st := range steps {
		_, s = s.Apply(st.Op, st.Arg)
		if fp := s.Fingerprint(); fp != trail[len(trail)-1] {
			trail = append(trail, fp)
		}
	}
	return trail
}

// sampleSteps is the fixed op sequence every registry type is driven
// through: each operation of Ops() in order, with each of its sample
// arguments in order.
func sampleSteps(dt spec.DataType) []spec.Instance {
	var steps []spec.Instance
	for _, op := range dt.Ops() {
		for _, a := range op.Args {
			steps = append(steps, spec.Instance{Op: op.Name, Arg: a})
		}
	}
	return steps
}

// TestFingerprintBytes pins the exact Fingerprint bytes of every data
// type. Fingerprints are the lincheck memo key, the replica convergence
// check and part of the goldens, so any rewrite of a Fingerprint method
// must reproduce these strings byte for byte.
func TestFingerprintBytes(t *testing.T) {
	want := map[string][]string{
		"bank":        {"bank:0", "bank:1", "bank:3", "bank:8", "bank:7", "bank:5", "bank:0"},
		"counter":     {"ctr:0", "ctr:1", "ctr:2", "ctr:4", "ctr:9"},
		"deque":       {"deque:", "deque:0", "deque:1,0", "deque:2,1,0", "deque:3,2,1,0", "deque:3,2,1,0,0", "deque:3,2,1,0,0,1", "deque:3,2,1,0,0,1,2", "deque:3,2,1,0,0,1,2,3", "deque:2,1,0,0,1,2,3", "deque:2,1,0,0,1,2"},
		"dict":        {"dict:", "dict:a=0", "dict:a=1", "dict:a=1,b=0", "dict:a=1,b=1", "dict:b=1", "dict:", "dict:a=0", "dict:a=1", "dict:a=1,b=0", "dict:a=1,b=1"},
		"log":         {"log:", "log:0", "log:0,1", "log:0,1,2", "log:0,1,2,3"},
		"maxregister": {"max:0", "max:1", "max:2", "max:3"},
		"pqueue":      {"pq:", "pq:0", "pq:0,1", "pq:0,1,2", "pq:0,1,2,3", "pq:1,2,3"},
		"queue":       {"queue:", "queue:0", "queue:0,1", "queue:0,1,2", "queue:0,1,2,3", "queue:1,2,3"},
		"register":    {"reg:0", "reg:1", "reg:2", "reg:3"},
		"rmwregister": {"rmw:0", "rmw:1", "rmw:2", "rmw:3", "rmw:4", "rmw:6", "rmw:9", "rmw:14"},
		"set":         {"set:", "set:0", "set:0,1", "set:0,1,2", "set:0,1,2,3", "set:1,2,3", "set:2,3", "set:3", "set:"},
		"stack":       {"stack:", "stack:0", "stack:0,1", "stack:0,1,2", "stack:0,1,2,3", "stack:0,1,2"},
		"tree":        {"tree:", "tree:1<0", "tree:1<0,3<1", "tree:1<0,2<0,3<1", "tree:1<0,2<1,3<1", "tree:1<0,2<3,3<1", "tree:1<0,3<1", "tree:1<0"},
		"treefw":      {"fwtree:", "fwtree:1<0", "fwtree:1<0,3<1", "fwtree:1<0,2<0,3<1", "fwtree:1<0,3<1", "fwtree:1<0"},
	}
	for _, name := range Names() {
		dt, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned fingerprints; add the type to this table", name)
			continue
		}
		if got := fingerprintTrail(dt, sampleSteps(dt)); !reflect.DeepEqual(got, w) {
			t.Errorf("%s fingerprints:\n got %q\nwant %q", name, got, w)
		}
	}
}

// TestFingerprintBytesEdgeCases pins the encodings the sample arguments
// do not reach: negative and multi-digit integers, tree edges whose
// string order differs from their numeric order, and Keyed object keys
// that need quoting.
func TestFingerprintBytesEdgeCases(t *testing.T) {
	const oddKey = "a\"b\\c\n\té\x00"
	cases := []struct {
		name  string
		dt    spec.DataType
		steps []spec.Instance
		want  []string
	}{
		{"register", NewRegister(0), []spec.Instance{{Op: OpWrite, Arg: -12}, {Op: OpWrite, Arg: 1234567890123}},
			[]string{"reg:0", "reg:-12", "reg:1234567890123"}},
		{"counter", NewCounter(), []spec.Instance{{Op: OpAddN, Arg: -40}},
			[]string{"ctr:0", "ctr:-40"}},
		{"queue", NewQueue(), []spec.Instance{{Op: OpEnqueue, Arg: -3}, {Op: OpEnqueue, Arg: 10}, {Op: OpEnqueue, Arg: 0}},
			[]string{"queue:", "queue:-3", "queue:-3,10", "queue:-3,10,0"}},
		{"stack", NewStack(), []spec.Instance{{Op: OpPush, Arg: 42}, {Op: OpPush, Arg: -1}},
			[]string{"stack:", "stack:42", "stack:42,-1"}},
		{"set", NewSet(), []spec.Instance{{Op: OpAdd, Arg: 10}, {Op: OpAdd, Arg: -2}, {Op: OpAdd, Arg: 9}},
			[]string{"set:", "set:10", "set:-2,10", "set:-2,9,10"}},
		{"tree", NewTree(), []spec.Instance{{Op: OpInsert, Arg: Edge{P: 0, C: 2}}, {Op: OpInsert, Arg: Edge{P: 0, C: 10}}, {Op: OpInsert, Arg: Edge{P: 10, C: 11}}},
			[]string{"tree:", "tree:2<0", "tree:10<0,2<0", "tree:10<0,11<10,2<0"}},
		{"dict", NewDict(), []spec.Instance{{Op: OpPut, Arg: KV{K: "z", V: -5}}, {Op: OpPut, Arg: KV{K: "k 1", V: 70}}},
			[]string{"dict:", "dict:z=-5", "dict:k 1=70,z=-5"}},
		{"keyed-queue", NewKeyed(NewQueue()), []spec.Instance{
			{Op: OpEnqueue, Arg: KV{K: oddKey, V: 7}},
			{Op: OpEnqueue, Arg: KV{K: "b", V: -1}},
			{Op: OpEnqueue, Arg: KV{K: oddKey, V: 12}},
			{Op: OpDequeue, Arg: "b"},
		}, []string{
			`keyed{}`,
			`keyed{"a\"b\\c\n\té\x00"=queue:7}`,
			`keyed{"a\"b\\c\n\té\x00"=queue:7 "b"=queue:-1}`,
			`keyed{"a\"b\\c\n\té\x00"=queue:7,12 "b"=queue:-1}`,
			`keyed{"a\"b\\c\n\té\x00"=queue:7,12}`,
		}},
		{"keyed-register", NewKeyed(NewRegister(0)), []spec.Instance{
			{Op: OpWrite, Arg: KV{K: "x", V: 3}},
			{Op: OpWrite, Arg: KV{K: "\u2028", V: 4}},
		}, []string{`keyed{}`, `keyed{"x"=reg:3}`, `keyed{"x"=reg:3 "\u2028"=reg:4}`}},
	}
	for _, tc := range cases {
		if got := fingerprintTrail(tc.dt, tc.steps); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s fingerprints:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
