"""A compute-pool double that records the task protocol.

``RecordingPool`` looks parallel to ``repro.viz`` (so fan-outs really
fan out) but runs each task lazily, in the caller, when it is waited
on — a kernel failure therefore surfaces in the middle of the caller's
wait/merge loop, with later tasks still outstanding — and remembers
which tasks were released.
"""


class RecordingTask:
    def __init__(self, fn, args, kwargs):
        self._call = (fn, args, kwargs)
        self.waited = False
        self.released = False

    def wait(self):
        fn, args, kwargs = self._call
        self.waited = True
        return fn(*args, **kwargs)

    def release(self):
        self.released = True


class RecordingPool:
    parallel = True
    distributed = False
    workers = 4

    def __init__(self):
        self.tasks = []

    def share(self, array):
        return array

    def submit(self, fn, *args, priority=0.0, **kwargs):
        task = RecordingTask(fn, args, kwargs)
        self.tasks.append(task)
        return task
