package serve_test

import (
	"reflect"
	"testing"

	"multiclust/serve"
)

// TestAlgorithmListsExact pins the service's built-in algorithm names
// exactly: what a batch job and a streaming job may name in "algo".
func TestAlgorithmListsExact(t *testing.T) {
	if got, want := serve.Algorithms(), []string{"dbscan", "em", "kmeans", "meta", "spectral"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Algorithms() = %v, want %v", got, want)
	}
	if got, want := serve.StreamAlgorithms(), []string{"coem", "kmeans", "meta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("StreamAlgorithms() = %v, want %v", got, want)
	}
}
