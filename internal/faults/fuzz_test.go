package faults

import (
	"reflect"
	"testing"
)

// FuzzParse checks that every plan Parse accepts renders to a spec that
// parses back to the same plan. Plan.String is part of every fleet cache
// and trajectory key, so two different plans must never render alike.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "-", "none", "apply@5", "drop@8x3", "apply@10+",
		" panic@2 , nan@4x2 ", "stale@7,drop@3,apply@3",
		"apply@2x4,drop@5,stale@7x2,nan@9,panic@3,panic@11",
		"apply@3+,apply@3", "drop@1x1,drop@1x2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v", spec, p, p.String(), again)
		}
	})
}

// FuzzParseFleet is FuzzParse for the fleet DSL and its victim selectors.
func FuzzParseFleet(f *testing.F) {
	for _, s := range []string{
		"", "-", "none", "crash@120x3/nodes=2%", "degrade@200+/node=17",
		"blackout@50x10/nodes=5", "crash@4+/nodes=1", "crash@7",
		"crash@10/nodes=1,degrade@10x4/nodes=3,blackout@12x2/nodes=10%",
		"crash@3/nodes=0.5%,crash@3/nodes=1", "degrade@2/node=0,degrade@2/node=1",
		"crash@3/nodes=NaN%",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFleet(spec)
		if err != nil {
			return
		}
		again, err := ParseFleet(p.String())
		if err != nil {
			t.Fatalf("ParseFleet(%q) rendered %q, which does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("ParseFleet(%q) = %+v renders %q, which parses to %+v", spec, p, p.String(), again)
		}
	})
}
