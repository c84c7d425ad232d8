package transport

// RingSize exposes the Inproc stream's per-direction buffer size to the
// contract tests, which bound how far a writer may run ahead of its reader.
const RingSize = ringSize
