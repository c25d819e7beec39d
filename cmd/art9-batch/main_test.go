package main

import (
	"testing"

	"repro/internal/remote/flagtest"
)

// TestValidateFleetFlags runs the shared fleet-flag cases written for
// art9-batch's -shards default, the one main registers the fleet flags with.
// internal/remote's TestFleetFlags checks the same cases' wording.
func TestValidateFleetFlags(t *testing.T) { flagtest.Run(t, shardsDefault, nil) }
