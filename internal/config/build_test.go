package config

import (
	"strings"
	"testing"

	"air/internal/core"
	"air/internal/model"
	"air/internal/pos"
)

func TestBuildCoreConfigAndRun(t *testing.T) {
	doc := Fig8Module()
	doc.Partitions[1].Policy = "round-robin"
	doc.Partitions[2].DeadlineQueue = "tree"

	var p1Ran bool
	cfg, err := doc.BuildCoreConfig(map[string]core.InitFunc{
		"P1": func(sv *core.Services) {
			p1Ran = true
			sv.SetPartitionMode(model.ModeNormal)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Partitions) != 4 {
		t.Fatalf("partitions = %d", len(cfg.Partitions))
	}
	if !cfg.Partitions[0].System || cfg.Partitions[0].Name != "P1" {
		t.Errorf("P1 config = %+v", cfg.Partitions[0])
	}
	if cfg.Partitions[1].Policy != pos.PolicyRoundRobin {
		t.Error("policy not mapped")
	}
	if cfg.Partitions[2].Queue != core.QueueTree {
		t.Error("deadline queue not mapped")
	}
	if len(cfg.Sampling) != 1 || len(cfg.Queuing) != 1 {
		t.Error("channels not mapped")
	}

	m, err := core.NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	if !p1Ran {
		t.Error("P1 init never ran")
	}
}

// TestBuildCoreConfigDeadlineQueue maps each document queue name to its
// runtime queue: the default and "list" are the paper's sorted list, and
// "tree" is the AVL tree.
func TestBuildCoreConfigDeadlineQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		want core.QueueKind
	}{{"", core.QueueList}, {"list", core.QueueList}, {"tree", core.QueueTree}} {
		doc := Fig8Module()
		doc.Partitions[0].DeadlineQueue = tc.name
		cfg, err := doc.BuildCoreConfig(nil)
		if err != nil {
			t.Fatalf("deadlineQueue %q: %v", tc.name, err)
		}
		if got := cfg.Partitions[0].Queue; got != tc.want {
			t.Errorf("deadlineQueue %q selects queue %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBuildCoreConfigErrors(t *testing.T) {
	doc := Fig8Module()
	doc.Partitions[0].Policy = "lottery"
	if _, err := doc.BuildCoreConfig(nil); err == nil || !strings.Contains(err.Error(), "lottery") {
		t.Errorf("unknown policy = %v", err)
	}
	doc = Fig8Module()
	doc.Partitions[0].DeadlineQueue = "skiplist"
	if _, err := doc.BuildCoreConfig(nil); err == nil || !strings.Contains(err.Error(), "skiplist") {
		t.Errorf("unknown queue = %v", err)
	}
	doc = Fig8Module()
	if _, err := doc.BuildCoreConfig(map[string]core.InitFunc{"GHOST": nil}); err == nil {
		t.Error("init for unknown partition accepted")
	}
	doc = Fig8Module()
	doc.Schedules[0].Windows[0].Duration = 1 // break eq. (23)
	if _, err := doc.BuildCoreConfig(nil); err == nil {
		t.Error("invalid document accepted")
	}
}
