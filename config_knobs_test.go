package spotless_test

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"spotless/internal/core"
	"spotless/internal/dissem"
	"spotless/internal/runtime"
)

// TestConfigKnobsDocumented keeps the knob table in docs/ARCHITECTURE.md
// and the config structs in step: every exported field of core.Config,
// dissem.Config, runtime.ClusterConfig and runtime.ReplicaSpec needs a row, and every row must
// name a field that still exists. A new knob therefore has to say, in
// review, what its default is and who sets it to something else.
func TestConfigKnobsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]reflect.Type{
		"core.Config":           reflect.TypeOf(core.Config{}),
		"dissem.Config":         reflect.TypeOf(dissem.Config{}),
		"runtime.ClusterConfig": reflect.TypeOf(runtime.ClusterConfig{}),
		"runtime.ReplicaSpec":   reflect.TypeOf(runtime.ReplicaSpec{}),
	}
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+)\\.([A-Za-z]+)` \\|").FindAllSubmatch(doc, -1) {
		name, field := string(m[1]), string(m[2])
		rows[name+"."+field] = true
		typ, ok := structs[name]
		if !ok {
			continue
		}
		if _, ok := typ.FieldByName(field); !ok {
			t.Errorf("docs/ARCHITECTURE.md has a knob row for %s.%s, which no longer exists", name, field)
		}
	}
	for name, typ := range structs {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !rows[name+"."+f.Name] {
				t.Errorf("%s.%s has no row in the docs/ARCHITECTURE.md knob table", name, f.Name)
			}
		}
	}
}
