/**
 * LD_PRELOAD shim for cli_test: every listen() call sleeps 300 ms
 * before the real one, which widens the window between a server's
 * bind() and its listen() far enough for a test to connect inside it.
 */
#include <dlfcn.h>
#include <sys/socket.h>
#include <unistd.h>

extern "C" int
listen(int fd, int backlog)
{
    using Listen = int (*)(int, int);
    static const Listen real =
        reinterpret_cast<Listen>(::dlsym(RTLD_NEXT, "listen"));
    ::usleep(300 * 1000);
    return real(fd, backlog);
}
