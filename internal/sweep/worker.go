package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
)

// Worker executes one shard of a campaign into a file. The coordinator
// retries a worker whose shard comes back torn or failed, so RunShard
// must be safe to call again with the same path (each attempt rewrites
// the file from scratch).
type Worker interface {
	// RunShard executes shard sh of campaign c into path. A nil error
	// means the worker believes it finished; the coordinator still
	// validates the file — trust, but verify.
	RunShard(ctx context.Context, c *Campaign, sh Shard, path string) error
	// Name tags the worker kind in the stats sidecar.
	Name() string
}

// LocalWorker executes shards in-process on the coordinator's
// goroutine pool — the single-binary default.
type LocalWorker struct {
	// Injector arms test-only faults; nil runs clean.
	Injector *Injector
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return "local" }

// RunShard implements Worker.
func (w *LocalWorker) RunShard(ctx context.Context, c *Campaign, sh Shard, path string) error {
	return ExecuteShardFile(ctx, c, sh, path, w.Injector)
}

// ProcessWorker spawns one subprocess per shard — crash isolation: a
// worker taken down mid-shard (OOM, kill, injected fault) loses only
// its in-flight shard, and the coordinator's process survives to
// retry, fail fast, or resume.
type ProcessWorker struct {
	// Argv builds the subprocess command line for one shard; the
	// subprocess must write the shard file at path itself (the
	// `testsuite sweep worker` contract). The environment is inherited,
	// so EnvFault reaches the child.
	Argv func(c *Campaign, sh Shard, path string) []string
}

// Name implements Worker.
func (w *ProcessWorker) Name() string { return "process" }

// RunShard implements Worker.
func (w *ProcessWorker) RunShard(ctx context.Context, c *Campaign, sh Shard, path string) error {
	argv := w.Argv(c, sh, path)
	if len(argv) == 0 {
		return fmt.Errorf("sweep: process worker built an empty command for shard %d", sh.Index)
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := bytes.TrimSpace(stderr.Bytes())
		if len(msg) > 0 {
			return fmt.Errorf("sweep: shard %d worker: %w: %s", sh.Index, err, msg)
		}
		return fmt.Errorf("sweep: shard %d worker: %w", sh.Index, err)
	}
	return nil
}
