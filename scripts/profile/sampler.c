/* CPU sampler for a process you cannot rebuild: preload it, and every 2 ms of
 * process CPU time (ITIMER_PROF) it records the interrupted thread's call
 * stack into a fixed buffer. At exit it writes the raw stacks and
 * /proc/self/maps to $PIXELS_PROFILE_DIR/samples.<pid> (default: the current
 * directory); scripts/profile/symbolise.py turns that into symbol shares.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   LD_PRELOAD=$PWD/sampler.so PIXELS_PROFILE_DIR=out ./program args...
 *
 * backtrace() is not formally async-signal-safe; it is called once up front so
 * the unwinder is loaded before the first signal, after which it only reads. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

#define DEPTH 48
#define WORDS (1u << 24) /* 128 MiB of virtual space, touched only as it fills */

static void *buf[WORDS]; /* records: frame count, then that many addresses */
static unsigned used;

static void on_prof(int sig) {
    (void)sig;
    void *all[DEPTH + 2];
    /* Frames 0 and 1 are this handler and the kernel's signal trampoline. */
    int n = backtrace(all, DEPTH + 2) - 2;
    void **frames = all + 2;
    if (n <= 0) return;
    unsigned at = __atomic_fetch_add(&used, (unsigned)n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) return;
    buf[at] = (void *)(long)n;
    for (int i = 0; i < n; i++) buf[at + 1 + i] = frames[i];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("PIXELS_PROFILE_DIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%d", dir ? dir : ".", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    unsigned end = used < WORDS ? used : WORDS;
    for (unsigned at = 0; at < end;) {
        long n = (long)buf[at];
        if (n <= 0 || at + n + 1 > end) break;
        for (long i = 0; i < n; i++) fprintf(out, "%lx ", (unsigned long)buf[at + 1 + i]);
        fputc('\n', out);
        at += n + 1;
    }
    fputs("MAPS\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 2000}, {0, 2000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
