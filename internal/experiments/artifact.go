package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// An Artifact is the machine-readable output of one runner invocation:
// per-experiment, per-point results with coordinates, metric values and
// wall-clock timings, plus enough metadata to attribute the run.

// ArtifactVersion is bumped on incompatible schema changes.
const ArtifactVersion = 1

// Artifact is one runner invocation's complete output.
type Artifact struct {
	Version   int    `json:"version"`
	Tool      string `json:"tool,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// CreatedAt is an RFC 3339 timestamp, supplied by the caller.
	CreatedAt string `json:"created_at,omitempty"`
	// Workers is the pool size the run used.
	Workers     int             `json:"workers,omitempty"`
	Experiments []ExperimentRun `json:"experiments"`
}

// Encode writes the artifact as indented JSON.
func (a *Artifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteArtifact writes the artifact to path (atomically via a temp file
// in the same directory, so a crashed run never leaves a torn JSON).
func WriteArtifact(path string, a *Artifact) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".artifact-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := a.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would survive the rename; publish world-readable.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
