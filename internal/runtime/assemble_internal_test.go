package runtime

import (
	"testing"
	"time"

	"spotless/internal/core"
)

// TestClusterAssemblyKeepsConfig: every Cluster replica reaches Tune with
// the consensus configuration NewCluster has always built, hosted by its own
// executor, on a node with AutoWorkers(InstanceWorkers, m) workers.
func TestClusterAssemblyKeepsConfig(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      ClusterConfig
		interval int // want CheckpointInterval; 0 also means no Host
	}{
		{"defaults", ClusterConfig{N: 4}, 64},
		{"set", ClusterConfig{N: 4, Instances: 3, InstanceWorkers: 2, IdleBackoff: 7 * time.Millisecond, CheckpointInterval: 16}, 16},
		{"checkpointing off", ClusterConfig{N: 4, Instances: 2, InstanceWorkers: -1, CheckpointInterval: -1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]core.Config, tc.cfg.N)
			tc.cfg.Tune = func(i int, cfg *core.Config) { got[i] = *cfg }
			cl, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl.Stop()
			m := max(tc.cfg.Instances, 1)
			for i, c := range got {
				if c.N != 4 || c.F != 1 || c.Instances != m {
					t.Errorf("replica %d: n=%d f=%d m=%d, want 4, 1, %d", i, c.N, c.F, c.Instances, m)
				}
				if c.InitialRecordingTimeout != 100*time.Millisecond || c.InitialCertifyTimeout != 100*time.Millisecond ||
					c.MinTimeout != 10*time.Millisecond || c.RetransmitInterval != 120*time.Millisecond {
					t.Errorf("replica %d timers: recording %v certify %v min %v retransmit %v", i,
						c.InitialRecordingTimeout, c.InitialCertifyTimeout, c.MinTimeout, c.RetransmitInterval)
				}
				if c.IdleBackoff != tc.cfg.IdleBackoff || c.CheckpointInterval != tc.interval {
					t.Errorf("replica %d: idle backoff %v, checkpoint interval %d", i, c.IdleBackoff, c.CheckpointInterval)
				}
				var want core.StateHost
				if tc.interval > 0 {
					want = cl.Execs[i]
				}
				if c.Host != want {
					t.Errorf("replica %d: Host %v, want %v", i, c.Host, want)
				}
				if w := AutoWorkers(tc.cfg.InstanceWorkers, m); cl.Nodes[i].workers != w {
					t.Errorf("replica %d: %d workers, want %d", i, cl.Nodes[i].workers, w)
				}
			}
		})
	}
}
